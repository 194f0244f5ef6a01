#include "bench/BenchCommon.hpp"

#include <cstdio>
#include <cstdlib>

#include "hwdb/HwPresets.hpp"
#include "util/Logging.hpp"
#include "util/StringUtils.hpp"

namespace gsuite::bench {

const std::vector<DatasetId> &
paperDatasets()
{
    static const std::vector<DatasetId> ids = {
        DatasetId::Cora, DatasetId::CiteSeer, DatasetId::PubMed,
        DatasetId::Reddit, DatasetId::LiveJournal};
    return ids;
}

const char *
dsShort(DatasetId id)
{
    return datasetInfo(id).shortForm.c_str();
}

std::string
dsShortByName(const std::string &name)
{
    if (isFileDataset(name))
        return name;
    return datasetInfoByName(name).shortForm;
}

const std::vector<GnnModelKind> &
paperModels()
{
    static const std::vector<GnnModelKind> models = {
        GnnModelKind::Gcn, GnnModelKind::Gin, GnnModelKind::Sage};
    return models;
}

bool
sageSpmmUnsupported(const UserParams &p)
{
    return p.model == GnnModelKind::Sage &&
           p.comp == CompModel::Spmm &&
           p.framework == Framework::Gsuite;
}

SimRun
runSimPipeline(DatasetId id, GnnModelKind model, CompModel comp,
               const SimBenchOptions &opts)
{
    UserParams p;
    p.dataset = datasetInfo(id).name;
    p.model = model;
    p.comp = comp;
    p.framework = Framework::Gsuite;
    p.engine = EngineKind::Sim;
    p.runs = 1;
    p.layers = opts.layers;
    p.seed = opts.seed;
    p.maxCtas = opts.maxCtas;
    p.profileCaches = opts.profileCaches;
    p.simThreads = opts.simThreads;
    p.simParallelLaunches = opts.parallelLaunches;

    const RunOutcome out = BenchSession::runPoint(p);
    SimRun run;
    run.timeline = out.timeline;
    run.byClass = simStatsByClass(run.timeline);
    run.scale = out.scaleDescription;
    return run;
}

std::string
pct(double fraction)
{
    return fmtDouble(100.0 * fraction, 1);
}

BenchArgs
BenchArgs::parse(int argc, char **argv)
{
    OptionSet opts;
    opts.parseArgs(argc, argv);
    const BenchArgs args = parse(opts);
    opts.rejectUnread();
    return args;
}

BenchArgs
BenchArgs::parse(const OptionSet &opts)
{
    if (opts.getBool("list-gpus", false))
        listHwPresetsAndExit();
    BenchArgs args;
    args.csvPath = opts.getString("csv", "");
    args.quick = opts.getBool("quick", false);
    args.layers = static_cast<int>(opts.getInt("layers", 2));
    args.sweepThreads =
        static_cast<int>(opts.getInt("sweep-threads", 1));
    args.gpus = expandGpuSpecs(opts.getString("gpu", "v100-sim"));
    args.tracePath = opts.getString("trace", "");
    if (opts.getBool("quiet", false))
        setLogLevel(LogLevel::Quiet);
    return args;
}

UserParams
BenchArgs::simBase() const
{
    UserParams p;
    p.framework = Framework::Gsuite;
    p.engine = EngineKind::Sim;
    p.runs = 1;
    p.layers = layers;
    p.maxCtas = maxCtas();
    p.simThreads = 0;          // auto (budget-composed in sweeps)
    p.simParallelLaunches = 0; // auto
    // Comma-join so SweepSpec::expand grows a GPU axis from the
    // base params — every sim bench inherits --gpu sweeps for free.
    p.gpu = join(gpus, ',');
    p.tracePath = tracePath;
    return p;
}

UserParams
BenchArgs::functionalBase() const
{
    UserParams p;
    p.framework = Framework::Gsuite;
    p.engine = EngineKind::Functional;
    p.runs = quick ? 1 : 3;
    p.layers = layers;
    return p;
}

BenchSession::Options
BenchArgs::sessionOptions() const
{
    BenchSession::Options opts;
    opts.sweepThreads = sweepThreads;
    return opts;
}

void
banner(const std::string &title, const std::string &note)
{
    std::printf("=== %s ===\n", title.c_str());
    if (!note.empty())
        std::printf("%s\n", note.c_str());
    std::printf("\n");
}

} // namespace gsuite::bench
