#include "suite/UserParams.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <type_traits>

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

namespace {

/**
 * Normalize a --dataset list per component: "file:PATH" keeps its
 * (case-sensitive) path, an rmat: spec is canonicalized so sweep
 * labels and graph-cache keys are stable, and a Table IV name is
 * lower-cased and validated.
 */
std::string
normalizeDatasets(const std::string &list)
{
    std::string normalized;
    for (const std::string &part : splitDatasetList(list)) {
        if (!normalized.empty())
            normalized += ',';
        if (isFileDataset(part)) {
            if (fileDatasetPath(part).empty())
                fatal("--dataset file: needs a path");
            normalized += part;
        } else if (isRmatDataset(part)) {
            // A bad spec ends the CLI cleanly rather than as an
            // uncaught exception.
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
    return normalized;
}

/** Reader of an integer field; fatal() below Min. */
template <auto Field, int64_t Min = INT64_MIN>
void
intFlag(const OptionSet &o, const char *n, UserParams &p)
{
    const int64_t v = o.getInt(n);
    if (v < Min)
        fatal("--%s must be >= %lld", n, static_cast<long long>(Min));
    p.*Field = static_cast<std::remove_reference_t<decltype(p.*Field)>>(v);
}

/** Reader of a named-value field; Parse fatal()s on unknown names. */
template <auto Field, auto Parse>
void
namedFlag(const OptionSet &o, const char *n, UserParams &p)
{
    p.*Field = Parse(o.getString(n));
}

/** One shared flag: its name and the reader that parses, validates
 *  and stores a given value (called with the options, the name and
 *  the params being built). */
struct Flag {
    const char *name;
    void (*read)(const OptionSet &o, const char *n, UserParams &p);
};

/**
 * The shared flag table: the one list of keys a CLI can declare. A
 * flag's default is its field in the base params fromOptions() starts
 * from. Read in this order: --list-gpus exits before anything else
 * is checked, and --quiet wins over --verbose.
 */
const Flag kFlags[] = {
    {"list-gpus",
     [](auto &o, auto n, auto &) {
         if (o.getBool(n, false))
             listHwPresetsAndExit();
     }},
    {"dataset", namedFlag<&UserParams::dataset, normalizeDatasets>},
    {"model", namedFlag<&UserParams::model, gnnModelFromName>},
    {"comp", namedFlag<&UserParams::comp, compModelFromName>},
    {"framework", namedFlag<&UserParams::framework, frameworkFromName>},
    {"engine", namedFlag<&UserParams::engine, engineKindFromName>},
    {"layers", intFlag<&UserParams::layers, 1>},
    {"hidden", intFlag<&UserParams::hidden>},
    {"outdim", intFlag<&UserParams::outDim>},
    {"gineps",
     [](auto &o, auto n, auto &p) {
         p.ginEps = static_cast<float>(o.getDouble(n, p.ginEps));
     }},
    {"runs", intFlag<&UserParams::runs, 1>},
    {"seed", intFlag<&UserParams::seed>},
    {"batch", intFlag<&UserParams::batch, 1>},
    {"profile-caches",
     [](auto &o, auto n, auto &p) { p.profileCaches = o.getBool(n, false); }},
    {"mem-plan",
     [](auto &o, auto n, auto &p) { p.memPlan = o.getBool(n, false); }},
    {"sim-threads", intFlag<&UserParams::simThreads, 0>},
    {"sim-parallel", intFlag<&UserParams::simParallelLaunches, 0>},
    {"sweep-threads", intFlag<&UserParams::sweepThreads, 0>},
    {"max-ctas", intFlag<&UserParams::maxCtas, 1>},
    {"cycle-ceiling", intFlag<&UserParams::cycleCeiling, 0>},
    // The scheduler/l1-bypass overrides engage only when given, so a
    // preset's own policy survives an override-free run.
    {"scheduler", namedFlag<&UserParams::scheduler, schedulerPolicyFromName>},
    {"l1-bypass",
     [](auto &o, auto n, auto &p) { p.l1BypassLoads = o.getBool(n, false); }},
    // Validate every comma component now so a sweep list fails fast,
    // but keep the list intact for SweepSpec to expand.
    {"sample",
     [](auto &o, auto n, auto &p) {
         p.sample = o.getString(n);
         if (p.sample.empty())
             return; // defer to the preset
         for (const std::string &part : split(p.sample, ',')) {
             GpuConfig scratch;
             applyCtaSampleSpec(scratch, part);
         }
     }},
    // Validate + canonicalize each component, expand "all", install
    // file-spec overhead overrides. A multi-spec result stays
    // comma-joined for SweepSpec to expand.
    {"gpu",
     [](auto &o, auto n, auto &p) {
         p.gpu = join(expandGpuSpecs(o.getString(n)), ',');
     }},
    {"node-div", intFlag<&UserParams::nodeDivisor>},
    {"edge-div", intFlag<&UserParams::edgeDivisor>},
    {"feature-cap", intFlag<&UserParams::featureCap>},
    {"csv", [](auto &o, auto n, auto &p) { p.csvOut = o.getString(n); }},
    {"trace", [](auto &o, auto n, auto &p) { p.tracePath = o.getString(n); }},
    {"verbose",
     [](auto &o, auto n, auto &) {
         if (o.getBool(n, false))
             setLogLevel(LogLevel::Verbose);
     }},
    {"quiet",
     [](auto &o, auto n, auto &) {
         if (o.getBool(n, false))
             setLogLevel(LogLevel::Quiet);
     }},
};

} // namespace

UserParams
UserParams::fromOptions(const OptionSet &opts,
                        const std::vector<std::string> &flags,
                        UserParams base)
{
    size_t declared = 0;
    for (const Flag &f : kFlags) {
        if (std::find(flags.begin(), flags.end(), f.name) == flags.end())
            continue;
        ++declared;
        if (opts.has(f.name))
            f.read(opts, f.name, base);
    }
    panicIf(declared != flags.size(),
            "a declared flag is not in the shared flag table");
    return base;
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
    std::vector<std::string> all;
    for (const Flag &f : kFlags)
        all.push_back(f.name);
    const UserParams p = fromOptions(merged, all, {});
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
