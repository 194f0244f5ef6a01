#include "suite/UserParams.hpp"

#include <cstdio>
#include <cstdlib>

#include "frameworks/FrameworkAdapter.hpp"
#include "hwdb/HwPresets.hpp"
#include "util/Logging.hpp"
#include "util/RunError.hpp"
#include "util/StringUtils.hpp"

namespace gsuite {

EngineKind
engineKindFromName(const std::string &name)
{
    const std::string n = toLower(trim(name));
    if (n == "functional" || n == "hw" || n == "profiler")
        return EngineKind::Functional;
    if (n == "sim" || n == "simulator" || n == "gpgpusim")
        return EngineKind::Sim;
    fatal("unknown engine '%s' (known: functional, sim)", name.c_str());
}

bool
isFileDataset(const std::string &dataset)
{
    return startsWith(dataset, "file:");
}

std::string
fileDatasetPath(const std::string &dataset)
{
    return dataset.substr(5);
}

void
applyCtaSampleSpec(GpuConfig &cfg, const std::string &spec)
{
    const std::vector<std::string> parts = split(trim(spec), ':');
    if (parts.empty() || parts[0].empty())
        fatal("--sample expects off | cta[:fraction][:key=value...], "
              "got '%s'",
              spec.c_str());
    cfg.sampleMode = ctaSampleModeFromName(parts[0]);
    for (size_t i = 1; i < parts.size(); ++i) {
        const std::string &part = parts[i];
        const size_t eq = part.find('=');
        if (eq == std::string::npos) {
            double fraction;
            if (!parseDouble(part, fraction))
                fatal("--sample part '%s' is neither a fraction nor "
                      "key=value",
                      part.c_str());
            cfg.sampleFraction = fraction;
            continue;
        }
        const std::string key = toLower(trim(part.substr(0, eq)));
        const std::string value = trim(part.substr(eq + 1));
        if (key == "fraction") {
            if (!parseDouble(value, cfg.sampleFraction))
                fatal("--sample fraction expects a number, got '%s'",
                      value.c_str());
        } else if (key == "min_ctas") {
            int64_t v;
            if (!parseInt(value, v) || v < 1)
                fatal("--sample min_ctas expects a positive integer, "
                      "got '%s'",
                      value.c_str());
            cfg.sampleMinCtas = v;
        } else if (key == "seed") {
            int64_t v;
            if (!parseInt(value, v) || v < 0)
                fatal("--sample seed expects a non-negative integer, "
                      "got '%s'",
                      value.c_str());
            cfg.sampleSeed = static_cast<uint64_t>(v);
        } else {
            fatal("unknown --sample key '%s' (known: fraction, "
                  "min_ctas, seed)",
                  key.c_str());
        }
    }
    if (!(cfg.sampleFraction > 0.0) || cfg.sampleFraction > 1.0)
        fatal("--sample fraction must be in (0, 1]");
}

UserParams
UserParams::fromOptions(const OptionSet &opts)
{
    if (opts.getBool("list-gpus", false))
        listHwPresetsAndExit();

    UserParams p;
    p.dataset = opts.getString("dataset", p.dataset);
    // "file:PATH" datasets keep their (case-sensitive) path; names
    // are normalized and validated against the Table IV registry.
    // Comma-separated lists (sweep shorthand for datasetNames())
    // are validated per component.
    {
        std::string normalized;
        for (const std::string &part : splitDatasetList(p.dataset)) {
            if (!normalized.empty())
                normalized += ',';
            if (isFileDataset(part)) {
                if (fileDatasetPath(part).empty())
                    fatal("--dataset file: needs a path");
                normalized += part;
            } else if (isRmatDataset(part)) {
                // Validate and canonicalize so sweep labels and
                // graph-cache keys are stable. A bad spec ends this
                // CLI cleanly rather than as an uncaught exception.
                try {
                    normalized += parseRmatSpec(part).canonical();
                } catch (const RunException &e) {
                    fatal("--dataset: %s", e.what());
                }
            } else {
                const std::string name = toLower(trim(part));
                datasetInfoByName(name); // validate early
                normalized += name;
            }
        }
        p.dataset = normalized;
    }
    p.model = gnnModelFromName(opts.getString("model", "gcn"));
    p.comp = compModelFromName(opts.getString("comp", "mp"));
    p.framework =
        frameworkFromName(opts.getString("framework", "gsuite"));
    p.engine = engineKindFromName(
        opts.getString("engine", "functional"));
    p.layers = static_cast<int>(opts.getInt("layers", p.layers));
    p.hidden = static_cast<int>(opts.getInt("hidden", p.hidden));
    p.outDim = static_cast<int>(opts.getInt("outdim", p.outDim));
    p.ginEps =
        static_cast<float>(opts.getDouble("gineps", p.ginEps));
    p.runs = static_cast<int>(opts.getInt("runs", p.runs));
    p.seed = static_cast<uint64_t>(opts.getInt("seed", 7));
    p.batch = static_cast<int>(opts.getInt("batch", p.batch));
    p.profileCaches = opts.getBool("profile-caches", false);
    p.memPlan = opts.getBool("mem-plan", p.memPlan);
    p.simThreads =
        static_cast<int>(opts.getInt("sim-threads", p.simThreads));
    p.simParallelLaunches = static_cast<int>(
        opts.getInt("sim-parallel", p.simParallelLaunches));
    p.sweepThreads = static_cast<int>(
        opts.getInt("sweep-threads", p.sweepThreads));
    p.maxCtas = opts.getInt("max-ctas", p.maxCtas);
    {
        const int64_t ceiling = opts.getInt("cycle-ceiling", 0);
        if (ceiling < 0)
            fatal("--cycle-ceiling must be >= 0");
        p.cycleCeiling = static_cast<uint64_t>(ceiling);
    }
    // The scheduler/l1-bypass overrides only engage when given, so
    // a preset's own policy survives an override-free run.
    if (opts.has("scheduler"))
        p.scheduler = schedulerPolicyFromName(
            opts.getString("scheduler"));
    if (opts.has("l1-bypass"))
        p.l1BypassLoads = opts.getBool("l1-bypass", false);
    // --sample: validate every comma component now so a sweep list
    // fails fast, but keep the list intact for SweepSpec to expand.
    p.sample = opts.getString("sample", p.sample);
    if (!p.sample.empty()) {
        for (const std::string &part : split(p.sample, ',')) {
            GpuConfig scratch;
            applyCtaSampleSpec(scratch, part);
        }
    }
    // Normalize --gpu: validate + canonicalize each component,
    // expand "all", install file-spec overhead overrides. A multi-
    // spec result stays comma-joined for SweepSpec to expand.
    p.gpu = join(expandGpuSpecs(opts.getString("gpu", p.gpu)), ',');
    p.nodeDivisor = opts.getInt("node-div", -1);
    p.edgeDivisor = opts.getInt("edge-div", -1);
    p.featureCap = opts.getInt("feature-cap", -1);
    p.csvOut = opts.getString("csv", "");
    p.tracePath = opts.getString("trace", "");

    if (opts.getBool("verbose", false))
        setLogLevel(LogLevel::Verbose);
    if (opts.getBool("quiet", false))
        setLogLevel(LogLevel::Quiet);

    if (p.layers < 1)
        fatal("--layers must be >= 1");
    if (p.runs < 1)
        fatal("--runs must be >= 1");
    if (p.batch < 1)
        fatal("--batch must be >= 1");
    if (p.simThreads < 0 || p.simParallelLaunches < 0)
        fatal("--sim-threads/--sim-parallel must be >= 0");
    if (p.sweepThreads < 0)
        fatal("--sweep-threads must be >= 0");
    if (p.maxCtas < 1)
        fatal("--max-ctas must be >= 1");
    return p;
}

UserParams
UserParams::fromArgs(int argc, const char *const *argv)
{
    // Two-phase parse: find --config first so the file provides the
    // defaults that explicit options then override.
    OptionSet cli;
    cli.parseArgs(argc, argv);

    OptionSet merged;
    if (cli.has("config"))
        merged.loadFile(cli.getString("config"));
    merged.parseArgs(argc, argv);
    merged.has("config"); // loaded above: mark it read
    const UserParams p = fromOptions(merged);
    merged.rejectUnread();
    return p;
}

DatasetScale
UserParams::resolveScale() const
{
    DatasetScale s;
    // file:/rmat: datasets have no Table IV entry; they default to
    // identity scale with the explicit divisors applied on top.
    if (!isFileDataset(dataset) && !isRmatDataset(dataset)) {
        const DatasetInfo &info = datasetInfoByName(dataset);
        s = engine == EngineKind::Sim
                ? defaultSimScale(info.id)
                : defaultFunctionalScale(info.id);
    }
    if (nodeDivisor > 0)
        s.nodeDivisor = nodeDivisor;
    if (edgeDivisor > 0)
        s.edgeDivisor = edgeDivisor;
    if (featureCap >= 0)
        s.featureCap = featureCap;
    return s;
}

GpuConfig
UserParams::resolveGpuConfig() const
{
    GpuConfig cfg = resolveGpuSpec(gpu);
    if (scheduler)
        cfg.scheduler = *scheduler;
    if (l1BypassLoads)
        cfg.l1BypassLoads = *l1BypassLoads;
    if (!sample.empty()) {
        if (sample.find(',') != std::string::npos)
            fatal("resolveGpuConfig() on a --sample list '%s'; "
                  "sweeps must expand points first",
                  sample.c_str());
        applyCtaSampleSpec(cfg, sample);
    }
    cfg.validate();
    return cfg;
}

ModelConfig
UserParams::modelConfig() const
{
    ModelConfig cfg;
    cfg.model = model;
    cfg.comp = comp;
    cfg.layers = layers;
    cfg.hidden = hidden;
    cfg.outDim = outDim;
    cfg.ginEps = ginEps;
    cfg.seed = seed;
    return cfg;
}

std::string
UserParams::describe() const
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s/%s/%s on %s (%s engine, gpu=%s, L=%d, "
                  "hidden=%d%s)",
                  frameworkName(framework), gnnModelName(model),
                  compModelName(comp), dataset.c_str(),
                  engine == EngineKind::Sim ? "sim" : "functional",
                  gpu.c_str(), layers, hidden,
                  batch > 1
                      ? (", batch=" + std::to_string(batch)).c_str()
                      : "");
    return buf;
}

} // namespace gsuite
