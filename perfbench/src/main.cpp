/**
 * @file
 * gsuite_perfbench: the repository benchmark binary.
 *
 *   gsuite_perfbench --workload NAME [--seed N] [--seconds S]
 *                    [--trace 0|1] [--out DIR] [--expected-dir DIR]
 *                    [--git-sha SHA] [--source-digest HEX]
 *   gsuite_perfbench --workload NAME --seed N --record FILE
 *   gsuite_perfbench --list
 *
 * One process runs one workload: set-up (dataset generation, timed
 * several times), untraced passes through BenchSession for the
 * measured seconds, the output checks, and with --trace 1 a traced
 * run for the per-layer split. The last stdout line is one JSON
 * object {correct, attempted, failed, metrics}. perfbench/run.py
 * builds this binary and is the command to run; see
 * perfbench/README.md.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "Checks.hpp"
#include "Host.hpp"
#include "Metrics.hpp"
#include "Spans.hpp"
#include "Traced.hpp"
#include "Workloads.hpp"
#include "suite/BenchSession.hpp"
#include "suite/Runner.hpp"
#include "util/Timer.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace gsuite;
using namespace perfbench;

namespace {

/** Dataset generations timed for setup_s (the median is reported):
 *  at least kSetupMinRepeats and kSetupMinSeconds in total, at most
 *  kSetupMaxRepeats. */
constexpr int kSetupMinRepeats = 3;
constexpr int kSetupMaxRepeats = 50;
constexpr double kSetupMinSeconds = 1.5;
/** BenchSession sweep lanes of every workload. */
constexpr int kSweepLanes = 1;

struct Args {
    std::string workload;
    uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    int trace = 0;
    std::string outDir = ".";
    std::string expectedDir;
    std::string recordPath;
    std::string gitSha = "unknown";
    std::string sourceDigest = "unknown";
    bool list = false;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "gsuite_perfbench: %s\n"
                 "usage: gsuite_perfbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--out DIR] "
                 "[--expected-dir DIR] [--record FILE] [--git-sha SHA] "
                 "[--source-digest HEX] | --list\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (key == "--list") {
            a.list = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const std::string val = argv[++i];
        try {
            if (key == "--workload")
                a.workload = val;
            else if (key == "--seed")
                a.seed = std::stoull(val);
            else if (key == "--seconds")
                a.seconds = std::stod(val);
            else if (key == "--trace")
                a.trace = std::stoi(val);
            else if (key == "--out")
                a.outDir = val;
            else if (key == "--expected-dir")
                a.expectedDir = val;
            else if (key == "--record")
                a.recordPath = val;
            else if (key == "--git-sha")
                a.gitSha = val;
            else if (key == "--source-digest")
                a.sourceDigest = val;
            else
                usage(("unknown option " + key).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + key + ": " + val).c_str());
        }
    }
    if (!a.list && a.workload.empty())
        usage("--workload is required");
    if (a.trace != 0 && a.trace != 1)
        usage("--trace takes 0 or 1");
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
}

/** One untraced pass through BenchSession. */
struct Pass {
    double wallS = 0.0;
    ResultStore store;
    std::vector<double> pointWallMs;
};

Pass
runPass(const Workload &w, const std::map<std::string, Graph> &graphs,
        const std::string &storePath,
        const std::map<std::string, double> &meta)
{
    BenchSession::Options opts;
    opts.sweepThreads = kSweepLanes;
    opts.graphCacheEntries = 0; // graphs come from set-up
    const BenchSession session(opts);
    Pass pass;
    pass.pointWallMs.assign(w.points.size(), 0.0);
    const Timer wall;
    pass.store = session.run(w.spec, [&](const SweepPoint &pt) {
        const Timer t;
        RunOutcome o =
            BenchSession::runPoint(pt.params, graphs.at(graphKey(pt.params)));
        pass.pointWallMs[pt.index] = t.elapsedMs();
        return o;
    });
    pass.store.toJson(storePath, meta);
    pass.wallS = wall.elapsedSec();
    return pass;
}

/** One row of the sampled-estimate audit. */
struct AuditRow {
    std::string point;
    std::string kernel;
    std::string cls;
    double est = 0.0;
    double err = 0.0;
    double exact = 0.0;
    double relErr = 0.0;
    bool covered = false;
};

/** Failure bookkeeping: one slot per attempted (pass, point). */
struct Attempts {
    std::vector<std::vector<bool>> failed; ///< [attempt][point]
    std::vector<std::string> reasons;

    void
    fail(size_t attempt, size_t point, const std::string &why)
    {
        failed.at(attempt).at(point) = true;
        reasons.push_back(why);
    }
    size_t
    count() const
    {
        size_t n = 0;
        for (const auto &a : failed)
            n += static_cast<size_t>(std::count(a.begin(), a.end(), true));
        return n;
    }
    size_t
    total() const
    {
        return failed.empty() ? 0 : failed.size() * failed[0].size();
    }
};

double
sumSpans(const std::vector<Span> &spans, const std::string &name,
         const std::string &cls = "")
{
    double ms = 0.0;
    for (const Span &s : spans)
        if (s.name == name && (cls.empty() || s.cls == cls))
            ms += s.durationMs();
    return ms;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Per-layer metrics from the traced run and the untraced pass. */
MetricValues
perLayerValues(const TracedRun &tr, const Pass &pass, double setupS,
               int probeThreads, int lanes)
{
    MetricValues m;
    const std::vector<Span> &sp = tr.spans;
    m["graph.load_ms"] = sumSpans(sp, "graph.load");
    m["models.build_ms"] = sumSpans(sp, "models.build");
    m["kernels.execute_ms"] = sumSpans(sp, "kernels.execute");
    m["simgpu.launch_ms"] = sumSpans(sp, "simgpu.launch");
    m["simgpu.sample_plan_ms"] = sumSpans(sp, "simgpu.sample_plan");
    m["profiler.profile_ms"] = sumSpans(sp, "profiler.profile");
    m["suite.emit_ms"] = sumSpans(sp, "suite.emit");

    // Every launch runs on one SM thread; the probe reran the inline
    // ones on probeThreads: eff = t(1) / (t(N) * N).
    const auto runPair = [&](const std::string &prefix,
                             const std::string &cls) {
        const double run = sumSpans(sp, "simgpu.run", cls);
        const double autoMs = sumSpans(sp, "simgpu.run_auto", cls);
        m[prefix + "run_ms"] = run;
        m[prefix + "run_ms_auto"] = autoMs;
        m[prefix + "sm_thread_eff"] = ratio(run, autoMs * probeThreads);
    };
    runPair("simgpu.", "");
    for (const std::string &c : kernelClassNames()) {
        m["kernels." + c + ".execute_ms"] =
            sumSpans(sp, "kernels.execute", c);
        runPair("simgpu." + c + ".", c);
    }

    // engine.self_ms: untraced point wall minus the time the traced
    // point's children cover.
    const std::vector<double> self = selfTimesMs(sp);
    double engineSelf = 0.0;
    for (size_t i = 0; i < sp.size(); ++i)
        if (sp[i].name == "engine.point")
            engineSelf += pass.pointWallMs.at(
                              static_cast<size_t>(sp[i].point)) -
                          (sp[i].durationMs() - self[i]);
    m["engine.self_ms"] = engineSelf;
    m["engine.lane_eff"] =
        ratio(m["simgpu.run_ms"], pass.wallS * 1e3 * lanes);
    m["trace.overhead_pct"] =
        (ratio(tr.wallMs, (setupS + pass.wallS) * 1e3) - 1.0) * 100.0;

    // Simulated and profiled counts (identical to the untraced run's).
    double winstr = 0, cycles = 0, ctas = 0, classify = 0, ff = 0;
    double tracePeak = 0, l1h = 0, l1m = 0, l2h = 0, l2m = 0, dram = 0;
    double rowHit = 0, rowMiss = 0, stallAll = 0, stallMshr = 0;
    double pl1h = 0, pl1m = 0, pl2h = 0, pl2m = 0;
    std::map<std::string, std::pair<double, double>> mshrByClass;
    for (const auto &timeline : tr.timelines) {
        for (const KernelRecord &r : timeline) {
            if (r.hasHw) {
                pl1h += r.hw.l1Hits;
                pl1m += r.hw.l1Misses;
                pl2h += r.hw.l2Hits;
                pl2m += r.hw.l2Misses;
            }
            if (!r.hasSim)
                continue;
            const KernelStats &s = r.sim;
            winstr += s.warpInstrs;
            cycles += s.cycles;
            ctas += s.ctasSimulated;
            classify += s.classifyEvals;
            ff += s.fastForwardCycles;
            tracePeak = std::max(tracePeak,
                                 static_cast<double>(s.traceBytesPeak));
            l1h += s.l1Hits;
            l1m += s.l1Misses;
            l2h += s.l2Hits;
            l2m += s.l2Misses;
            dram += s.dramBytes;
            rowHit += s.dramRowHits;
            rowMiss += s.dramRowMisses;
            double all = 0;
            for (const uint64_t c : s.stallCycles)
                all += c;
            const double mshr = s.stallCycles[static_cast<size_t>(
                StallReason::MshrFull)];
            stallAll += all;
            stallMshr += mshr;
            auto &byClass = mshrByClass[kernelClassName(r.kind)];
            byClass.first += mshr;
            byClass.second += all;
        }
    }
    m["simgpu.ns_per_warp_instr"] = ratio(m["simgpu.run_ms"] * 1e6, winstr);
    m["simgpu.sampled_ctas_ratio"] =
        ratio(static_cast<double>(tr.sampledCtas),
              static_cast<double>(tr.samplePopulation));
    m["simgpu.warp_instrs"] = winstr;
    m["simgpu.cycles"] = cycles;
    m["simgpu.ctas_simulated"] = ctas;
    m["simgpu.classify_evals"] = classify;
    m["simgpu.fast_forward_cycles"] = ff;
    m["simgpu.trace_bytes_peak"] = tracePeak;
    m["simgpu.l1_hit_ratio"] = ratio(l1h, l1h + l1m);
    m["simgpu.l2_hit_ratio"] = ratio(l2h, l2h + l2m);
    m["simgpu.stall_mshr_full_share"] = ratio(stallMshr, stallAll);
    m["simgpu.dram_bytes"] = dram;
    m["simgpu.dram_row_hit_ratio"] = ratio(rowHit, rowHit + rowMiss);
    for (const std::string &c : kernelClassNames()) {
        const auto it = mshrByClass.find(c);
        m["simgpu." + c + ".stall_mshr_full_share"] =
            it == mshrByClass.end()
                ? 0.0
                : ratio(it->second.first, it->second.second);
    }
    m["profiler.l1_hit_ratio"] = ratio(pl1h, pl1h + pl1m);
    m["profiler.l2_hit_ratio"] = ratio(pl2h, pl2h + pl2m);
    return m;
}

void
printMetrics(const char *title, const std::vector<MetricSpec> &specs,
             const MetricValues &values)
{
    std::printf("%s\n", title);
    for (const MetricSpec &s : specs)
        std::printf("  %-38s %16.6g %-6s (%s is better)\n", s.name.c_str(),
                    values.at(s.name), s.unit.c_str(), s.better.c_str());
}

std::string
metricsJson(const std::vector<MetricSpec> &specs, const MetricValues &v)
{
    std::string out = "{";
    for (size_t i = 0; i < specs.size(); ++i)
        out += (i ? ", " : "") + jsonString(specs[i].name) +
               ": {\"value\": " + jsonNumber(v.at(specs[i].name)) +
               ", \"unit\": " + jsonString(specs[i].unit) + "}";
    return out + "}";
}

void
printList()
{
    for (const std::string &n : workloadNames())
        std::printf("workload\t%s\n", n.c_str());
    for (const MetricSpec &s : endToEndMetrics())
        std::printf("end_to_end\t%s\t%s\t%s\n", s.name.c_str(),
                    s.unit.c_str(), s.better.c_str());
    for (const MetricSpec &s : perLayerMetrics())
        std::printf("per_layer\t%s\t%s\t%s\n", s.name.c_str(),
                    s.unit.c_str(), s.better.c_str());
}

/** Host facts and the thread counts the library resolves for @p w,
 *  as numeric provenance (ResultStore::toJson meta). */
std::map<std::string, double>
resolveMeta(const Workload &w, uint64_t seed)
{
    int smThreads = 0, probeThreads = 0, lanes = 1, profThreads = 0;
    for (const SweepPoint &pt : w.points) {
        const GpuConfig gpu = pt.params.resolveGpuConfig();
        smThreads = std::max(smThreads, smThreadsPerLaunch(pt.params, gpu));
        if (pt.params.engine == EngineKind::Sim)
            probeThreads = std::max(probeThreads, autoSmThreads(gpu));
        lanes = std::max(lanes, launchLanes(pt.params));
        profThreads =
            std::max(profThreads, profilerThreads(pt.params, gpu));
    }
    return {
        {"seed", static_cast<double>(seed)},
        {"nproc", static_cast<double>(hostNproc())},
        {"hardware_concurrency",
         static_cast<double>(hostHardwareConcurrency())},
        {"sm_threads", static_cast<double>(smThreads)},
        {"probe_sm_threads", static_cast<double>(probeThreads)},
        {"launch_lanes", static_cast<double>(lanes)},
        {"sweep_lanes", static_cast<double>(kSweepLanes)},
        {"profiler_threads", static_cast<double>(profThreads)},
    };
}

/** Generate every distinct graph of @p w several times; returns the
 *  median seconds and leaves the last generation in @p graphs. */
double
measureSetup(const Workload &w, std::map<std::string, Graph> &graphs)
{
    std::vector<double> times;
    const Timer all;
    while (static_cast<int>(times.size()) < kSetupMinRepeats ||
           (all.elapsedSec() < kSetupMinSeconds &&
            static_cast<int>(times.size()) < kSetupMaxRepeats)) {
        graphs.clear();
        const Timer t;
        for (const SweepPoint &pt : w.points) {
            const std::string key = graphKey(pt.params);
            if (!graphs.count(key))
                graphs.emplace(key, loadDatasetFor(pt.params));
        }
        times.push_back(t.elapsedSec());
    }
    return median(times);
}

/** What the checks of the untraced passes produced. */
struct CheckResults {
    std::vector<AuditRow> audit;
    /** The statistics of this run, in record form (--record). */
    ExpectedStats record;
    bool recordChecked = false; ///< expected/ held this seed
    /** Fresh-allocator profiles per point (profiled points only). */
    std::vector<std::vector<HwProfileResult>> fresh;
    double driftMax = 0.0; ///< largest profileDrift, untraced passes
    int driftKernels = 0;  ///< pass-0 kernels with any drift
};

/** Fail every kernel of attempt @p attempt whose profile drifts more
 *  than the tolerance from the fresh one; returns the largest drift. */
double
checkDrift(const Workload &w, size_t attempt, size_t i,
           const std::vector<KernelRecord> &tl,
           const std::vector<HwProfileResult> &fresh, const char *what,
           Attempts &att)
{
    double worst = 0.0;
    for (size_t k = 0; k < tl.size() && k < fresh.size(); ++k) {
        const double d = profileDrift(tl[k].hw, fresh[k]);
        worst = std::max(worst, d);
        if (d > kProfileDriftTolerance)
            att.fail(attempt, i,
                     "'" + w.points[i].label + "' " + tl[k].name + ": " +
                         what + " profile hit rates drift " +
                         jsonNumber(d) + " from a fresh allocator");
    }
    return worst;
}

/**
 * Check the untraced passes: every point succeeded, passes agree,
 * statistics match the record for this seed (when there is one),
 * outputs match referenceForward, profiles stay near a fresh
 * allocator's; and audit every sampled launch against exact cycles.
 */
CheckResults
checkPasses(const Workload &w, const Args &args,
            const std::vector<Pass> &passes,
            const std::map<std::string, Graph> &graphs, int lanes,
            Attempts &att)
{
    const size_t npoints = w.points.size();
    const auto timelineOf = [&](size_t pass, size_t i)
        -> const std::vector<KernelRecord> & {
        return passes[pass].store.at(i).outcome.timeline;
    };
    for (size_t k = 0; k < passes.size(); ++k) {
        for (size_t i = 0; i < npoints; ++i) {
            const SweepResult &r = passes[k].store.at(i);
            if (!r.ok)
                att.fail(k, i, "pass " + std::to_string(k) + " '" +
                                   w.points[i].label + "' failed [" +
                                   runErrorName(r.errorKind) +
                                   "]: " + r.error);
            else if (k > 0 && passes[0].store.at(i).ok &&
                     !sameStats(timelineOf(k, i), timelineOf(0, i)))
                att.fail(k, i, "pass " + std::to_string(k) + " '" +
                                   w.points[i].label +
                                   "': statistics differ from pass 0");
        }
    }

    CheckResults res;
    res.fresh.resize(npoints);
    ExpectedStats expected;
    if (args.recordPath.empty() && !args.expectedDir.empty())
        res.recordChecked = readExpected(
            expectedPath(args.expectedDir, w.name, args.seed), expected);
    for (size_t i = 0; i < npoints; ++i) {
        const SweepResult &r = passes[0].store.at(i);
        if (!r.ok)
            continue;
        const std::string &label = w.points[i].label;
        const std::vector<KernelRecord> &tl = r.outcome.timeline;
        const auto rec = expected.find(label);
        if (res.recordChecked &&
            (rec == expected.end() || !matchesExpected(tl, rec->second)))
            att.fail(0, i, "'" + label + "': statistics differ from the "
                               "recorded seed " +
                               std::to_string(args.seed));
        const auto recorded = [&](size_t k) -> const ExpectedKernel * {
            return rec != expected.end() && k < rec->second.size()
                       ? &rec->second[k]
                       : nullptr;
        };

        // Exact references for the sampled launches the record lacks.
        std::vector<bool> exactFor(tl.size(), false);
        for (size_t k = 0; k < tl.size(); ++k)
            exactFor[k] = w.sampled && tl[k].sim.sampledCtas > 0 &&
                          (!recorded(k) || recorded(k)->exactCycles == 0);
        const PointCheck chk = checkPoint(
            w.points[i], graphs.at(graphKey(w.points[i].params)), exactFor,
            lanes);
        if (!(chk.outputErr <= kOutputTolerance))
            att.fail(0, i, "'" + label + "': output differs from "
                               "referenceForward by " +
                               jsonNumber(chk.outputErr));

        res.fresh[i] = chk.freshProfile;
        for (size_t k = 0; k < tl.size() && k < res.fresh[i].size(); ++k)
            res.driftKernels += profileDrift(tl[k].hw, res.fresh[i][k]) > 0.0;
        for (size_t pass = 0; pass < passes.size(); ++pass)
            if (passes[pass].store.at(i).ok)
                res.driftMax = std::max(
                    res.driftMax, checkDrift(w, pass, i, timelineOf(pass, i),
                                             res.fresh[i], "untraced", att));

        auto &kernels = res.record[label];
        for (size_t k = 0; k < tl.size(); ++k) {
            ExpectedKernel ek{tl[k].name, statDigest(tl[k]), 0, {}};
            if (k < res.fresh[i].size()) {
                ek.freshProfile = profileCounts(res.fresh[i][k]);
                if (recorded(k) &&
                    recorded(k)->freshProfile != ek.freshProfile)
                    att.fail(0, i, "'" + label + "' " + tl[k].name +
                                       ": fresh-allocator profile differs "
                                       "from the recorded seed");
            }
            if (w.sampled && tl[k].sim.sampledCtas > 0) {
                ek.exactCycles = exactFor[k] ? chk.exactCycles[k]
                                             : recorded(k)->exactCycles;
                AuditRow row;
                row.point = label;
                row.kernel = tl[k].name;
                row.cls = kernelClassName(tl[k].kind);
                row.est = tl[k].sim.estimate("cycles");
                row.err = tl[k].sim.estimateErr("cycles");
                row.exact = static_cast<double>(ek.exactCycles);
                row.relErr = ratio(row.est - row.exact, row.exact);
                row.covered = std::fabs(row.est - row.exact) <= row.err;
                res.audit.push_back(row);
            }
            kernels.push_back(std::move(ek));
        }
    }
    return res;
}

/** Check the traced run against the untraced pass 0 (attempt @p ta). */
void
checkTraced(const Workload &w, const TracedRun &tr, const Pass &pass0,
            const CheckResults &checks, size_t ta, Attempts &att)
{
    for (size_t i = 0; i < w.points.size(); ++i) {
        const SweepResult &r = pass0.store.at(i);
        if (r.ok && !sameStats(tr.timelines[i], r.outcome.timeline))
            att.fail(ta, i, "'" + w.points[i].label +
                                "': traced statistics differ from the "
                                "untraced run");
        if (!(tr.outputErr[i] <= kOutputTolerance))
            att.fail(ta, i, "'" + w.points[i].label +
                                "': traced output differs from "
                                "referenceForward");
        checkDrift(w, ta, i, tr.timelines[i], checks.fresh[i], "traced",
                   att);
    }
    if (tr.threadMismatches > 0)
        att.fail(ta, 0, std::to_string(tr.threadMismatches) +
                            " launches changed statistics on the auto "
                            "SM-thread count");
}

/** The untraced end-to-end metrics. */
MetricValues
endToEndValues(const std::vector<Pass> &passes, double setupS,
               double rssMb)
{
    std::vector<double> walls, funcKernel;
    for (const Pass &p : passes) {
        walls.push_back(p.wallS);
        // Kernel time of run j of every point, summed over points.
        std::vector<double> perRun;
        for (const SweepResult &r : p.store) {
            if (!r.ok)
                continue;
            const auto &ks = r.outcome.kernelSamplesUs;
            perRun.resize(std::max(perRun.size(), ks.size()), 0.0);
            for (size_t j = 0; j < ks.size(); ++j)
                perRun[j] += ks[j] * 1e-6;
        }
        funcKernel.insert(funcKernel.end(), perRun.begin(), perRun.end());
    }
    return {{"setup_s", setupS},
            {"wall_s", median(walls)},
            {"func_kernel_s", median(funcKernel)},
            {"peak_rss_mb", rssMb}};
}

/** Untraced figures that exist only on some workloads; reported with
 *  the per-layer metrics. */
MetricValues
workloadFigures(const std::vector<Pass> &passes, const CheckResults &c)
{
    std::vector<double> winstrRate, cycleRate;
    for (const Pass &p : passes) {
        double winstr = 0, cycles = 0;
        for (const SweepResult &r : p.store)
            for (const KernelRecord &k : r.outcome.timeline)
                if (k.hasSim) {
                    winstr += k.sim.warpInstrs;
                    cycles += k.sim.cycles;
                }
        winstrRate.push_back(winstr / p.wallS);
        cycleRate.push_back(cycles / p.wallS);
    }
    std::vector<double> absErr;
    double covered = 0;
    for (const AuditRow &row : c.audit) {
        absErr.push_back(std::fabs(row.relErr));
        covered += row.covered ? 1 : 0;
    }
    return {
        {"sim_winstr_per_s", median(winstrRate)},
        {"sim_cycles_per_s", median(cycleRate)},
        {"sample_err_p50", median(absErr)},
        {"sample_err_max",
         absErr.empty() ? 0.0
                        : *std::max_element(absErr.begin(), absErr.end())},
        {"sample_bar_cover",
         ratio(covered, static_cast<double>(c.audit.size()))},
        {"profiler.layout_drift_kernels",
         static_cast<double>(c.driftKernels)},
        {"profiler.layout_drift_max", c.driftMax},
    };
}

void
printReport(const std::vector<Pass> &passes, const Attempts &att,
            const CheckResults &c, const MetricValues &e2e,
            const MetricValues &figures, const MetricValues *layer)
{
    std::printf("passes %zu (wall s:", passes.size());
    for (const Pass &p : passes)
        std::printf(" %.3f", p.wallS);
    std::printf("), attempted %zu, failed %zu\n", att.total(), att.count());
    for (const std::string &why : att.reasons)
        std::printf("FAIL %s\n", why.c_str());
    if (!c.audit.empty()) {
        std::printf("sampled-estimate audit (cycles): est, err, exact, "
                    "(est-exact)/exact, covered\n");
        for (const AuditRow &row : c.audit)
            std::printf("  %-40s %-16s %12.0f %10.0f %12.0f %+8.3f %s\n",
                        row.point.c_str(), row.kernel.c_str(), row.est,
                        row.err, row.exact, row.relErr,
                        row.covered ? "yes" : "NO");
    }
    printMetrics("end-to-end (untraced):", endToEndMetrics(), e2e);
    std::vector<MetricSpec> figureSpecs;
    for (const MetricSpec &spec : perLayerMetrics())
        if (figures.count(spec.name))
            figureSpecs.push_back(spec);
    printMetrics("workload figures (untraced):", figureSpecs, figures);
    if (layer)
        printMetrics("per-layer (traced):", perLayerMetrics(), *layer);
}

/** The result file: provenance, metrics, audit rows and failures. */
bool
writeResultFile(const std::string &path, const Workload &w,
                const Args &args, const std::map<std::string, double> &meta,
                const std::vector<Pass> &passes, const CheckResults &c,
                const Attempts &att,
                const MetricValues &e2e, const MetricValues &figures,
                const MetricValues *layer)
{
    std::ostringstream js;
    js << "{\n  \"provenance\": {\"workload\": " << jsonString(w.name)
       << ", \"seed\": " << args.seed
       << ", \"git_sha\": " << jsonString(args.gitSha)
       << ", \"source_digest\": " << jsonString(args.sourceDigest)
       << ", \"compiler\": " << jsonString(PERFBENCH_COMPILER)
       << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE);
    for (const auto &[k, v] : meta)
        if (k != "seed")
            js << ", " << jsonString(k) << ": " << jsonNumber(v);
    js << ", \"trace\": " << args.trace << ", \"passes\": " << passes.size()
       << ", \"seconds\": " << jsonNumber(args.seconds)
       << ", \"recorded_stats_checked\": "
       << (c.recordChecked ? "true" : "false") << "},\n";
    js << "  \"pass_wall_s\": [";
    for (size_t i = 0; i < passes.size(); ++i)
        js << (i ? ", " : "") << jsonNumber(passes[i].wallS);
    js << "],\n";
    js << "  \"end_to_end\": " << metricsJson(endToEndMetrics(), e2e)
       << ",\n  \"workload_figures\": {";
    bool first = true;
    for (const auto &[name, value] : figures) {
        js << (first ? "" : ", ") << jsonString(name) << ": "
           << jsonNumber(value);
        first = false;
    }
    js << "},\n";
    if (layer)
        js << "  \"per_layer\": " << metricsJson(perLayerMetrics(), *layer)
           << ",\n";
    js << "  \"audit\": [";
    for (size_t i = 0; i < c.audit.size(); ++i) {
        const AuditRow &r = c.audit[i];
        js << (i ? ",\n    " : "\n    ") << "{\"point\": "
           << jsonString(r.point) << ", \"kernel\": " << jsonString(r.kernel)
           << ", \"class\": " << jsonString(r.cls)
           << ", \"est\": " << jsonNumber(r.est)
           << ", \"err\": " << jsonNumber(r.err)
           << ", \"exact\": " << jsonNumber(r.exact)
           << ", \"rel_err\": " << jsonNumber(r.relErr)
           << ", \"covered\": " << (r.covered ? "true" : "false") << "}";
    }
    js << "],\n  \"failures\": [";
    for (size_t i = 0; i < att.reasons.size(); ++i)
        js << (i ? ", " : "") << jsonString(att.reasons[i]);
    js << "]\n}\n";
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const bool wrote = std::fputs(js.str().c_str(), f) >= 0;
    return std::fclose(f) == 0 && wrote;
}

int
run(const Args &args)
{
    if (args.list) {
        printList();
        return 0;
    }

    const Workload w = makeWorkload(args.workload, args.seed);
    const std::map<std::string, double> meta = resolveMeta(w, args.seed);
    const int nproc = static_cast<int>(meta.at("nproc"));
    for (const char *key : {"sm_threads", "probe_sm_threads", "launch_lanes",
                            "sweep_lanes", "profiler_threads"}) {
        if (meta.at(key) > nproc) {
            std::fprintf(stderr,
                         "gsuite_perfbench: refusing to run: resolved %s "
                         "= %g exceeds nproc = %d\n",
                         key, meta.at(key), nproc);
            return 3;
        }
    }
    std::printf("workload %s seed %llu: %zu points, sm_threads %g, "
                "launch_lanes %g, sweep_lanes %g, profiler_threads %g, "
                "nproc %d\n",
                w.name.c_str(), static_cast<unsigned long long>(args.seed),
                w.points.size(), meta.at("sm_threads"),
                meta.at("launch_lanes"), meta.at("sweep_lanes"),
                meta.at("profiler_threads"), nproc);

    std::map<std::string, Graph> graphs;
    const double setupS = measureSetup(w, graphs);

    // Untraced passes for the measured seconds (one when tracing or
    // recording: those runs measure something else).
    const bool recording = !args.recordPath.empty();
    const std::string stem = args.outDir + "/" + w.name + "-seed" +
                             std::to_string(args.seed);
    std::vector<Pass> passes;
    const Timer measured;
    do {
        passes.push_back(runPass(w, graphs, stem + "-store.json", meta));
    } while (!recording && args.trace == 0 &&
             measured.elapsedSec() < args.seconds);
    const double rssMb = peakRssMb();

    Attempts att;
    att.failed.assign(passes.size() + (args.trace ? 1 : 0),
                      std::vector<bool>(w.points.size(), false));
    const CheckResults checks =
        checkPasses(w, args, passes, graphs, nproc, att);
    if (recording) {
        if (att.count() > 0 || !writeExpected(args.recordPath, checks.record)) {
            for (const std::string &why : att.reasons)
                std::fprintf(stderr, "FAIL %s\n", why.c_str());
            std::fprintf(stderr, "gsuite_perfbench: record not written\n");
            return 1;
        }
        std::printf("recorded %zu points to %s\n", checks.record.size(),
                    args.recordPath.c_str());
        return 0;
    }

    const MetricValues e2e = endToEndValues(passes, setupS, rssMb);
    MetricValues figures = workloadFigures(passes, checks);
    MetricValues layer;
    if (args.trace) {
        const TracedRun tr = runTraced(w, stem + "-traced-store.json", meta);
        checkTraced(w, tr, passes[0], checks, passes.size(), att);
        layer = perLayerValues(tr, passes[0], setupS,
                               static_cast<int>(meta.at("probe_sm_threads")),
                               static_cast<int>(meta.at("launch_lanes")));
        if (!writeSpansJson(stem + "-spans.json", tr.spans))
            std::fprintf(stderr, "warning: could not write %s-spans.json\n",
                         stem.c_str());
    }
    figures["failed_ratio"] = ratio(static_cast<double>(att.count()),
                                    static_cast<double>(att.total()));
    if (args.trace)
        layer.insert(figures.begin(), figures.end());
    const MetricValues *traced = args.trace ? &layer : nullptr;

    printReport(passes, att, checks, e2e, figures, traced);
    const std::string path =
        stem + "-trace" + std::to_string(args.trace) + ".json";
    if (!writeResultFile(path, w, args, meta, passes, checks, att,
                         e2e, figures, traced)) {
        std::fprintf(stderr, "gsuite_perfbench: cannot write %s\n",
                     path.c_str());
        return 1;
    }
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                att.count() == 0 ? "true" : "false", att.total(),
                att.count(),
                metricsJson(args.trace ? perLayerMetrics() : endToEndMetrics(),
                            args.trace ? layer : e2e)
                    .c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    try {
        return run(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "gsuite_perfbench: %s\n", e.what());
        return 1;
    }
}
