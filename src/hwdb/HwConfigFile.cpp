#include "hwdb/HwConfigFile.hpp"

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>

#include "frameworks/FrameworkAdapter.hpp"
#include "hwdb/HwPresets.hpp"
#include "hwdb/KeyValueFile.hpp"
#include "obs/TraceSink.hpp"
#include "util/Logging.hpp"
#include "util/StringUtils.hpp"

namespace gsuite {

namespace {

/**
 * One addressable key: a getter rendering the field canonically and
 * a setter parsing a raw value into it. fatal() in setters carries
 * @p origin so errors point at the offending file.
 */
struct KeyDef {
    const char *key;
    const char *section;
    std::function<std::string(const GpuConfig &)> get;
    std::function<void(GpuConfig &, const std::string &value,
                       const std::string &origin)>
        set;
};

int64_t
parseIntOrDie(const char *key, const std::string &value,
              const std::string &origin)
{
    int64_t v;
    if (!parseInt(value, v))
        fatal("%s: key '%s' expects an integer, got '%s'",
              origin.c_str(), key, value.c_str());
    return v;
}

KeyDef
intKey(const char *key, const char *section, int GpuConfig::*field)
{
    return {key, section,
            [field](const GpuConfig &c) {
                return std::to_string(c.*field);
            },
            [key, field](GpuConfig &c, const std::string &v,
                         const std::string &origin) {
                c.*field = static_cast<int>(
                    parseIntOrDie(key, v, origin));
            }};
}

KeyDef
doubleKey(const char *key, const char *section,
          double GpuConfig::*field)
{
    return {key, section,
            [field](const GpuConfig &c) {
                return fmtTrimmedDouble(c.*field);
            },
            [key, field](GpuConfig &c, const std::string &v,
                         const std::string &origin) {
                double parsed;
                if (!parseDouble(v, parsed))
                    fatal("%s: key '%s' expects a number, got '%s'",
                          origin.c_str(), key, v.c_str());
                c.*field = parsed;
            }};
}

KeyDef
boolKey(const char *key, const char *section, bool GpuConfig::*field)
{
    return {key, section,
            [field](const GpuConfig &c) {
                return c.*field ? "true" : "false";
            },
            [key, field](GpuConfig &c, const std::string &v,
                         const std::string &origin) {
                bool parsed;
                if (!parseBool(v, parsed))
                    fatal("%s: key '%s' expects a boolean, got '%s'",
                          origin.c_str(), key, v.c_str());
                c.*field = parsed;
            }};
}

KeyDef
cacheIntKey(const char *key, const char *section,
            CacheGeometry GpuConfig::*cache, int CacheGeometry::*field)
{
    return {key, section,
            [cache, field](const GpuConfig &c) {
                return std::to_string(c.*cache.*field);
            },
            // Geometry terms divide the cache size; zero would trap
            // before validate() ever ran, so reject here.
            [key, cache, field](GpuConfig &c, const std::string &v,
                                const std::string &origin) {
                const int64_t parsed = parseIntOrDie(key, v, origin);
                if (parsed <= 0)
                    fatal("%s: key '%s' must be positive",
                          origin.c_str(), key);
                c.*cache.*field = static_cast<int>(parsed);
            }};
}

KeyDef
cacheSizeKey(const char *key, const char *section,
             CacheGeometry GpuConfig::*cache)
{
    return {key, section,
            [cache](const GpuConfig &c) {
                return std::to_string((c.*cache).sizeBytes);
            },
            [key, cache](GpuConfig &c, const std::string &v,
                         const std::string &origin) {
                const int64_t parsed = parseIntOrDie(key, v, origin);
                if (parsed <= 0)
                    fatal("%s: key '%s' must be positive",
                          origin.c_str(), key);
                (c.*cache).sizeBytes =
                    static_cast<uint64_t>(parsed);
            }};
}

KeyDef
cacheBoolKey(const char *key, const char *section,
             CacheGeometry GpuConfig::*cache,
             bool CacheGeometry::*field)
{
    return {key, section,
            [cache, field](const GpuConfig &c) {
                return c.*cache.*field ? "true" : "false";
            },
            [key, cache, field](GpuConfig &c, const std::string &v,
                                const std::string &origin) {
                bool parsed;
                if (!parseBool(v, parsed))
                    fatal("%s: key '%s' expects a boolean, got '%s'",
                          origin.c_str(), key, v.c_str());
                c.*cache.*field = parsed;
            }};
}

KeyDef
mshrIntKey(const char *key, const char *section,
           MshrConfig GpuConfig::*mshr, int MshrConfig::*field)
{
    return {key, section,
            [mshr, field](const GpuConfig &c) {
                return std::to_string(c.*mshr.*field);
            },
            [key, mshr, field](GpuConfig &c, const std::string &v,
                               const std::string &origin) {
                const int64_t parsed = parseIntOrDie(key, v, origin);
                if (parsed <= 0)
                    fatal("%s: key '%s' must be positive",
                          origin.c_str(), key);
                c.*mshr.*field = static_cast<int>(parsed);
            }};
}

KeyDef
dramIntKey(const char *key, const char *section,
           int DramConfig::*field)
{
    return {key, section,
            [field](const GpuConfig &c) {
                return std::to_string(c.dram.*field);
            },
            [key, field](GpuConfig &c, const std::string &v,
                         const std::string &origin) {
                const int64_t parsed = parseIntOrDie(key, v, origin);
                if (parsed <= 0)
                    fatal("%s: key '%s' must be positive",
                          origin.c_str(), key);
                c.dram.*field = static_cast<int>(parsed);
            }};
}

/**
 * Derived check key: serialized for readability, and when present
 * in a parsed file it must agree with the geometry keys (the
 * sets x assoc x line = size identity).
 */
KeyDef
cacheSetsKey(const char *key, const char *section,
             CacheGeometry GpuConfig::*cache)
{
    return {key, section,
            [cache](const GpuConfig &c) {
                return std::to_string((c.*cache).numSets());
            },
            // Checked against the final geometry after all keys are
            // applied (see parse loop); the setter validates type
            // and positivity here so no claim can dodge the check.
            [key](GpuConfig &, const std::string &v,
                  const std::string &origin) {
                if (parseIntOrDie(key, v, origin) <= 0)
                    fatal("%s: key '%s' must be positive",
                          origin.c_str(), key);
            }};
}

const std::vector<KeyDef> &
keySchema()
{
    static const std::vector<KeyDef> schema = [] {
        std::vector<KeyDef> keys;
        keys.push_back(
            {"name", "identity",
             [](const GpuConfig &c) { return c.name; },
             [](GpuConfig &c, const std::string &v,
                const std::string &origin) {
                 if (v.empty())
                     fatal("%s: key 'name' must not be empty",
                           origin.c_str());
                 c.name = v;
             }});

        const char *core = "core geometry";
        keys.push_back(intKey("core.num_sms", core,
                              &GpuConfig::numSms));
        keys.push_back(intKey("core.sm_sample_factor", core,
                              &GpuConfig::smSampleFactor));
        keys.push_back(intKey("core.warp_size", core,
                              &GpuConfig::warpSize));
        keys.push_back(intKey("core.max_warps_per_sm", core,
                              &GpuConfig::maxWarpsPerSm));
        keys.push_back(intKey("core.max_threads_per_sm", core,
                              &GpuConfig::maxThreadsPerSm));
        keys.push_back(intKey("core.max_ctas_per_sm", core,
                              &GpuConfig::maxCtasPerSm));
        keys.push_back(intKey("core.num_schedulers", core,
                              &GpuConfig::numSchedulers));
        keys.push_back(
            {"core.scheduler", core,
             [](const GpuConfig &c) {
                 return std::string(
                     schedulerPolicyName(c.scheduler));
             },
             [](GpuConfig &c, const std::string &v,
                const std::string &origin) {
                 const std::string n = toLower(trim(v));
                 if (n == "gto")
                     c.scheduler = SchedulerPolicy::Gto;
                 else if (n == "lrr")
                     c.scheduler = SchedulerPolicy::Lrr;
                 else
                     fatal("%s: key 'core.scheduler' expects gto or "
                           "lrr, got '%s'",
                           origin.c_str(), v.c_str());
             }});
        keys.push_back(doubleKey("core.clock_ghz", core,
                                 &GpuConfig::coreClockGhz));

        const char *exec = "execution latencies";
        keys.push_back(intKey("exec.alu_latency", exec,
                              &GpuConfig::aluLatency));
        keys.push_back(intKey("exec.sfu_latency", exec,
                              &GpuConfig::sfuLatency));
        keys.push_back(intKey("exec.alu_initiation_interval", exec,
                              &GpuConfig::aluInitiationInterval));
        keys.push_back(intKey("exec.lds_latency", exec,
                              &GpuConfig::ldsLatency));

        const char *fetch = "instruction fetch";
        keys.push_back(intKey("fetch.icache_cold_latency", fetch,
                              &GpuConfig::icacheColdLatency));
        keys.push_back(intKey("fetch.ifetch_latency", fetch,
                              &GpuConfig::ifetchLatency));

        const char *mem = "memory system";
        keys.push_back(intKey("mem.lsu_ports_per_sm", mem,
                              &GpuConfig::lsuPortsPerSm));
        keys.push_back(intKey("mem.l1_latency", mem,
                              &GpuConfig::l1Latency));
        keys.push_back(intKey("mem.l2_latency", mem,
                              &GpuConfig::l2Latency));
        keys.push_back(intKey("mem.dram_latency", mem,
                              &GpuConfig::dramLatency));
        keys.push_back(boolKey("mem.l1_bypass_loads", mem,
                               &GpuConfig::l1BypassLoads));
        keys.push_back(
            doubleKey("mem.dram_bytes_per_cycle_per_sm", mem,
                      &GpuConfig::dramBytesPerCyclePerSm));
        keys.push_back(intKey("mem.num_l2_slices", mem,
                              &GpuConfig::numL2Slices));
        keys.push_back(mshrIntKey("mem.l1_mshr_entries", mem,
                                  &GpuConfig::l1Mshr,
                                  &MshrConfig::entries));
        keys.push_back(mshrIntKey("mem.l1_mshr_merges", mem,
                                  &GpuConfig::l1Mshr,
                                  &MshrConfig::maxMerges));
        keys.push_back(mshrIntKey("mem.l1_mshr_hit_under_miss", mem,
                                  &GpuConfig::l1Mshr,
                                  &MshrConfig::hitUnderMiss));
        keys.push_back(mshrIntKey("mem.l2_mshr_entries", mem,
                                  &GpuConfig::l2Mshr,
                                  &MshrConfig::entries));
        keys.push_back(mshrIntKey("mem.l2_mshr_merges", mem,
                                  &GpuConfig::l2Mshr,
                                  &MshrConfig::maxMerges));
        keys.push_back(mshrIntKey("mem.l2_mshr_hit_under_miss", mem,
                                  &GpuConfig::l2Mshr,
                                  &MshrConfig::hitUnderMiss));
        keys.push_back(dramIntKey("mem.dram_banks", mem,
                                  &DramConfig::numBanks));
        keys.push_back(dramIntKey("mem.dram_row_bytes", mem,
                                  &DramConfig::rowBytes));
        keys.push_back(
            dramIntKey("mem.dram_trcd", mem, &DramConfig::tRcd));
        keys.push_back(
            dramIntKey("mem.dram_tras", mem, &DramConfig::tRas));
        keys.push_back(
            dramIntKey("mem.dram_trp", mem, &DramConfig::tRp));
        keys.push_back(
            dramIntKey("mem.dram_tccd", mem, &DramConfig::tCcd));
        keys.push_back(
            {"mem.dram_scheduler", mem,
             [](const GpuConfig &c) {
                 return std::string(
                     dramSchedPolicyName(c.dram.scheduler));
             },
             [](GpuConfig &c, const std::string &v,
                const std::string &origin) {
                 const std::string n = toLower(trim(v));
                 if (n == "frfcfs")
                     c.dram.scheduler = DramSchedPolicy::Frfcfs;
                 else if (n == "fcfs")
                     c.dram.scheduler = DramSchedPolicy::Fcfs;
                 else
                     fatal("%s: key 'mem.dram_scheduler' expects "
                           "frfcfs or fcfs, got '%s'",
                           origin.c_str(), v.c_str());
             }});
        keys.push_back(dramIntKey("mem.dram_sched_queue_size", mem,
                                  &DramConfig::schedQueueSize));

        const char *l1d = "L1 data cache";
        keys.push_back(
            cacheSizeKey("l1d.size_bytes", l1d, &GpuConfig::l1d));
        keys.push_back(cacheIntKey("l1d.line_bytes", l1d,
                                   &GpuConfig::l1d,
                                   &CacheGeometry::lineBytes));
        keys.push_back(cacheIntKey("l1d.sector_bytes", l1d,
                                   &GpuConfig::l1d,
                                   &CacheGeometry::sectorBytes));
        keys.push_back(cacheIntKey("l1d.assoc", l1d, &GpuConfig::l1d,
                                   &CacheGeometry::assoc));
        keys.push_back(cacheBoolKey("l1d.allocate_on_write", l1d,
                                    &GpuConfig::l1d,
                                    &CacheGeometry::allocateOnWrite));
        keys.push_back(
            cacheSetsKey("l1d.sets", l1d, &GpuConfig::l1d));

        const char *l2 = "L2 cache";
        keys.push_back(
            cacheSizeKey("l2.size_bytes", l2, &GpuConfig::l2));
        keys.push_back(cacheIntKey("l2.line_bytes", l2,
                                   &GpuConfig::l2,
                                   &CacheGeometry::lineBytes));
        keys.push_back(cacheIntKey("l2.sector_bytes", l2,
                                   &GpuConfig::l2,
                                   &CacheGeometry::sectorBytes));
        keys.push_back(cacheIntKey("l2.assoc", l2, &GpuConfig::l2,
                                   &CacheGeometry::assoc));
        keys.push_back(cacheBoolKey("l2.allocate_on_write", l2,
                                    &GpuConfig::l2,
                                    &CacheGeometry::allocateOnWrite));
        keys.push_back(cacheSetsKey("l2.sets", l2, &GpuConfig::l2));

        // gpgpusim's -trace_enabled / -trace_components /
        // -trace_sampling_core vocabulary, feeding src/obs.
        const char *trace = "trace";
        keys.push_back(boolKey("trace.enabled", trace,
                               &GpuConfig::traceEnabled));
        keys.push_back(
            {"trace.components", trace,
             [](const GpuConfig &c) {
                 // Canonicalize so serialize/parse round-trips.
                 unsigned mask = 0;
                 if (tryParseTraceComponents(c.traceComponents, mask))
                     return traceComponentNames(mask);
                 return c.traceComponents;
             },
             [](GpuConfig &c, const std::string &v,
                const std::string &origin) {
                 unsigned mask = 0;
                 if (!tryParseTraceComponents(v, mask))
                     fatal("%s: key 'trace.components' expects a "
                           "comma list of all/none/engine/sm/"
                           "serving/memplan, got '%s'",
                           origin.c_str(), v.c_str());
                 c.traceComponents = traceComponentNames(mask);
             }});
        keys.push_back(intKey("trace.sampling_core", trace,
                              &GpuConfig::traceSamplingCore));

        // CTA-sampled cycle simulation (simgpu/CtaSampler.hpp).
        const char *sample = "sampled simulation";
        keys.push_back(
            {"sample.mode", sample,
             [](const GpuConfig &c) {
                 return std::string(ctaSampleModeName(c.sampleMode));
             },
             [](GpuConfig &c, const std::string &v,
                const std::string &origin) {
                 const std::string n = toLower(trim(v));
                 if (n == "off")
                     c.sampleMode = CtaSampleMode::Off;
                 else if (n == "cta")
                     c.sampleMode = CtaSampleMode::Cta;
                 else
                     fatal("%s: key 'sample.mode' expects off or "
                           "cta, got '%s'",
                           origin.c_str(), v.c_str());
             }});
        keys.push_back(doubleKey("sample.fraction", sample,
                                 &GpuConfig::sampleFraction));
        keys.push_back(
            {"sample.min_ctas", sample,
             [](const GpuConfig &c) {
                 return std::to_string(c.sampleMinCtas);
             },
             [](GpuConfig &c, const std::string &v,
                const std::string &origin) {
                 const int64_t parsed =
                     parseIntOrDie("sample.min_ctas", v, origin);
                 if (parsed < 1)
                     fatal("%s: key 'sample.min_ctas' must be at "
                           "least 1",
                           origin.c_str());
                 c.sampleMinCtas = parsed;
             }});
        keys.push_back(
            {"sample.seed", sample,
             [](const GpuConfig &c) {
                 return std::to_string(c.sampleSeed);
             },
             [](GpuConfig &c, const std::string &v,
                const std::string &origin) {
                 const int64_t parsed =
                     parseIntOrDie("sample.seed", v, origin);
                 if (parsed < 0)
                     fatal("%s: key 'sample.seed' must be "
                           "non-negative",
                           origin.c_str());
                 c.sampleSeed = static_cast<uint64_t>(parsed);
             }});
        return keys;
    }();
    return schema;
}

const KeyDef *
findKey(const std::string &key)
{
    for (const KeyDef &def : keySchema())
        if (key == def.key)
            return &def;
    return nullptr;
}

/** overhead.<framework>.<constant> — the non-GpuConfig key family. */
bool
applyOverheadKey(HwConfig &hw, const std::string &key,
                 const std::string &value, const std::string &origin)
{
    if (!startsWith(key, "overhead."))
        return false;
    const std::vector<std::string> parts = split(key, '.');
    if (parts.size() != 3 || parts[1].empty() || parts[2].empty())
        fatal("%s: overhead keys are overhead.<framework>.<field>, "
              "got '%s'",
              origin.c_str(), key.c_str());
    const Framework fw = frameworkFromName(parts[1]);
    auto it = hw.overheads.find(fw);
    if (it == hw.overheads.end())
        // Seed from the calibrated defaults, never the effective
        // values — parsing must not depend on overrides some other
        // file installed earlier in the process.
        it = hw.overheads
                 .emplace(fw, FrameworkOverheads::defaults(fw))
                 .first;
    double parsed;
    if (!parseDouble(value, parsed))
        fatal("%s: key '%s' expects a number, got '%s'",
              origin.c_str(), key.c_str(), value.c_str());
    if (parts[2] == "init_us")
        it->second.initUs = parsed;
    else if (parts[2] == "per_kernel_us")
        it->second.perKernelUs = parsed;
    else if (parts[2] == "kernel_factor")
        it->second.kernelFactor = parsed;
    else
        fatal("%s: unknown overhead field '%s' (known: init_us, "
              "per_kernel_us, kernel_factor)",
              origin.c_str(), parts[2].c_str());
    return true;
}

void
checkDerivedSets(const GpuConfig &cfg, const char *key,
                 const CacheGeometry &geom, int64_t claimed,
                 const std::string &origin)
{
    if (claimed != geom.numSets())
        fatal("%s: derived key '%s' claims %lld sets but "
              "size/(line*assoc) = %llu/(%d*%d) gives %d",
              origin.c_str(), key,
              static_cast<long long>(claimed),
              static_cast<unsigned long long>(geom.sizeBytes),
              geom.lineBytes, geom.assoc, geom.numSets());
}

} // namespace

void
HwConfig::applyOverheads() const
{
    for (const auto &[fw, values] : overheads)
        setFrameworkOverheads(fw, values);
}

HwConfig
parseHwConfigText(const std::string &text, const std::string &origin)
{
    HwConfig hw;
    bool sawKey = false;
    int64_t claimedL1Sets = -1, claimedL2Sets = -1;

    for (const KeyValueLine &kv : parseKeyValueText(text, origin)) {
        const std::string &key = kv.key;
        const std::string &value = kv.value;

        if (key == "base") {
            if (sawKey)
                fatal("%s:%d: 'base' must precede every other key",
                      origin.c_str(), kv.lineno);
            hw.gpu = hwPresetByName(value).config;
            continue;
        }
        sawKey = true;

        if (applyOverheadKey(hw, key, value, origin))
            continue;

        const KeyDef *def = findKey(key);
        if (!def)
            fatal("%s:%d: unknown key '%s' (see src/hwdb/README.md "
                  "for the key table)",
                  origin.c_str(), kv.lineno, key.c_str());
        def->set(hw.gpu, value, origin);
        if (key == "l1d.sets")
            parseInt(value, claimedL1Sets);
        else if (key == "l2.sets")
            parseInt(value, claimedL2Sets);
    }

    // Derived-parameter cross-checks run after the whole file so key
    // order cannot hide an inconsistency.
    if (claimedL1Sets >= 0)
        checkDerivedSets(hw.gpu, "l1d.sets", hw.gpu.l1d,
                         claimedL1Sets, origin);
    if (claimedL2Sets >= 0)
        checkDerivedSets(hw.gpu, "l2.sets", hw.gpu.l2, claimedL2Sets,
                         origin);
    hw.gpu.validate();
    return hw;
}

HwConfig
parseHwConfigFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open GPU config file '%s'", path.c_str());
    std::ostringstream text;
    text << in.rdbuf();
    return parseHwConfigText(text.str(), path);
}

std::string
serializeGpuConfig(const GpuConfig &cfg)
{
    std::string out = "# gSuite hardware description (hwdb)\n";
    const char *section = nullptr;
    for (const KeyDef &def : keySchema()) {
        if (!section || std::string(section) != def.section) {
            section = def.section;
            out += "\n# ";
            out += section;
            out += "\n";
        }
        out += def.key;
        out += " ";
        out += def.get(cfg);
        out += "\n";
    }
    return out;
}

std::string
serializeHwConfig(const HwConfig &hw)
{
    std::string out = serializeGpuConfig(hw.gpu);
    if (!hw.overheads.empty()) {
        out += "\n# framework overhead constants\n";
        for (const auto &[fw, v] : hw.overheads) {
            const std::string prefix =
                std::string("overhead.") + frameworkName(fw) + ".";
            out += prefix + "init_us " + fmtTrimmedDouble(v.initUs) +
                   "\n";
            out += prefix + "per_kernel_us " +
                   fmtTrimmedDouble(v.perKernelUs) + "\n";
            out += prefix + "kernel_factor " +
                   fmtTrimmedDouble(v.kernelFactor) + "\n";
        }
    }
    return out;
}

void
writeHwConfigFile(const HwConfig &hw, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write GPU config file '%s'", path.c_str());
    out << serializeHwConfig(hw);
    if (!out)
        fatal("write error on '%s'", path.c_str());
}

std::vector<std::pair<std::string, std::string>>
gpuConfigKeyValues(const GpuConfig &cfg)
{
    std::vector<std::pair<std::string, std::string>> kv;
    for (const KeyDef &def : keySchema())
        kv.emplace_back(def.key, def.get(cfg));
    return kv;
}

} // namespace gsuite
