#include "bench/BenchCommon.hpp"

#include <cstdio>

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

std::string
pct(double fraction)
{
    return fmtDouble(100.0 * fraction, 1);
}

BenchArgs::BenchArgs(const OptionSet &cli,
                     std::initializer_list<std::string> extra,
                     const UserParams &defaults)
    : quick(cli.getBool("quick", false))
{
    std::vector<std::string> flags = {"list-gpus", "layers",
                                      "sweep-threads", "gpu",
                                      "csv", "trace", "quiet"};
    flags.insert(flags.end(), extra);
    params = UserParams::fromOptions(cli, flags, defaults);
}

BenchArgs::BenchArgs(int argc, char **argv)
{
    OptionSet cli;
    cli.parseArgs(argc, argv);
    *this = BenchArgs(cli);
    cli.rejectUnread();
}

UserParams
BenchArgs::simBase() const
{
    UserParams p = params;
    p.framework = Framework::Gsuite;
    p.engine = EngineKind::Sim;
    p.runs = 1;
    p.maxCtas = maxCtas();
    p.simThreads = 0;          // auto (budget-composed in sweeps)
    p.simParallelLaunches = 0; // auto
    return p;
}

UserParams
BenchArgs::functionalBase() const
{
    UserParams p = params;
    p.framework = Framework::Gsuite;
    p.engine = EngineKind::Functional;
    p.runs = quick ? 1 : 3;
    // The functional engine models no machine: a --gpu list would
    // only repeat every point.
    p.gpu = UserParams{}.gpu;
    return p;
}

BenchSession::Options
BenchArgs::sessionOptions() const
{
    BenchSession::Options opts;
    opts.sweepThreads = params.sweepThreads;
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
