/**
 * @file
 * Serving-under-load bench — the robustness scenario on top of the
 * op-graph IR: a seeded request stream (Poisson / bursty / trace)
 * over profiled GNN inference classes, pushed through the
 * continuous-batching admission scheduler with SLO deadlines,
 * bounded queues, deadline-aware shedding, retry-with-backoff, and
 * deterministic fault injection (hwdb FaultPlan).
 *
 * The offered-load axis is expressed as a fraction of the profiled
 * service capacity (requests the device completes per cycle at the
 * full batch size), so the goodput curve shows its knee at 1.0x on
 * every GPU. All serving metrics are integer cycle-domain counters:
 * bit-identical across reruns and sweep-thread counts, checked
 * in-process by running every point twice and comparing stats.
 *
 *   --arrivals LIST    ','-separated arrival specs; ';' separates
 *                      parameters inside one spec (default
 *                      "poisson:rate=40,bursty:rate=40;on=0.25;
 *                      period=500000")
 *   --offered LIST     offered-load factors vs profiled capacity
 *                      (default 0.5,0.8,1.2,2; --quick: 0.8,1.5)
 *   --slo-us LIST      SLO deadlines in simulated microseconds
 *                      (default 100)
 *   --fault-plan LIST  hwdb fault plans: none|light|heavy|file:PATH
 *                      (default "none,heavy")
 *   --policy SPEC      serving policy: default|file:PATH (a file
 *                      policy's knobs stand unless the matching CLI
 *                      flag is given explicitly)
 *   --lanes N          launch lanes the batch schedule models (4)
 *   --mem-budget-mb N  device-memory budget, 0 = unlimited (0)
 *   --horizon-mcycles N  arrival horizon (default 20; --quick 5)
 *   --json FILE        output path (default BENCH_serving.json)
 *   --trace FILE       Chrome-trace JSON: the first GPU's class
 *                      profiling (engine kernel spans + memplan
 *                      tracks) merged with every point's serving
 *                      lifecycle, one pid group per point
 *   plus the standard --csv/--quick/--layers/--gpu/--sweep-threads.
 *
 * Emits BENCH_serving.json via ResultStore::toJson; every serving
 * counter and *_cycles latency metric is deterministic and gated by
 * scripts/compare_bench_json.py.
 */

#include <atomic>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/BenchCommon.hpp"
#include "hwdb/FaultPlan.hpp"
#include "hwdb/HwConfigFile.hpp"
#include "hwdb/KeyValueFile.hpp"
#include "hwdb/HwPresets.hpp"
#include "obs/TraceSink.hpp"
#include "serving/RequestStream.hpp"
#include "serving/ServingScheduler.hpp"
#include "util/Logging.hpp"
#include "util/StringUtils.hpp"
#include "util/ThreadPool.hpp"

using namespace gsuite;
using namespace gsuite::bench;

namespace {

/** Arrival-stream seed: fixed so reruns are comparable artifacts. */
constexpr uint64_t kArrivalSeed = 1234;

/** Label-friendly number: integral values render without exponent. */
std::string
fmtAxisValue(double v)
{
    if (v == static_cast<double>(static_cast<long long>(v)))
        return std::to_string(static_cast<long long>(v));
    return fmtTrimmedDouble(v);
}

std::vector<double>
parseLoadFactors(const std::string &list)
{
    std::vector<double> out;
    for (const std::string &part : split(list, ',')) {
        const std::string s = trim(part);
        double v;
        if (s.empty() || !parseDouble(s, v) || v <= 0.0)
            fatal("--offered needs positive load factors, got '%s'",
                  s.c_str());
        out.push_back(v);
    }
    if (out.empty())
        fatal("--offered must name at least one load factor");
    return out;
}

/** One expanded grid point of the serving sweep. */
struct ServingPoint {
    size_t index = 0;
    std::string gpuSpec;
    std::string arrival;  ///< canonical arrival spec
    double loadFactor = 1.0;
    double sloUs = 0.0;
    std::string faultSpec; ///< canonical fault-plan spec
    std::string label;
};

} // namespace

int
main(int argc, char **argv)
{
    OptionSet cli;
    cli.parseArgs(argc, argv);
    const BenchArgs args(cli, {"dataset", "model"});
    const std::string json_path =
        cli.getString("json", "BENCH_serving.json");
    const uint64_t horizon =
        static_cast<uint64_t>(cli.getInt(
            "horizon-mcycles", args.quick ? 5 : 20)) *
        1'000'000;
    if (horizon == 0)
        fatal("--horizon-mcycles must be positive");

    const std::vector<std::string> arrivals = expandArrivalSpecs(
        cli.getString("arrivals",
                      "poisson:rate=40,"
                      "bursty:rate=40;on=0.25;period=500000"));
    const std::vector<double> loads = parseLoadFactors(
        cli.getString("offered", args.quick ? "0.8,1.5"
                                            : "0.5,0.8,1.2,2"));
    const std::vector<double> slos =
        expandSloUsList(cli.getString("slo-us", "100"));
    const std::vector<std::string> faults = expandFaultPlanSpecs(
        cli.getString("fault-plan", "none,heavy"));

    const std::string policy_spec =
        cli.getString("policy", "default");
    ServingPolicy policy = resolveServingPolicySpec(policy_spec);
    const bool file_policy = startsWith(trim(policy_spec), "file:");
    // A file policy owns its knobs; CLI flags override only when
    // explicitly given. The default policy takes the CLI defaults.
    if (!file_policy || cli.has("lanes"))
        policy.lanes = static_cast<int>(cli.getInt("lanes", 4));
    if (!file_policy || cli.has("mem-budget-mb"))
        policy.memBudgetBytes =
            static_cast<uint64_t>(cli.getInt("mem-budget-mb", 0)) *
            (1ull << 20);
    if (!file_policy) {
        // Degradation knobs the bench exercises by default: halve
        // the batch under mem pressure, evict low-priority work on
        // overflow, fall back to the 1-layer variant when the queue
        // is half full.
        policy.degrade.shedLowestPriority = true;
        policy.degrade.fallbackQueueDepth =
            policy.queueCapacity / 2;
    }
    policy.validate();

    cli.rejectUnread();
    UserParams base = args.simBase();
    base.comp = CompModel::Mp;
    base.simThreads = 0; // profiling only; serving loop is host code
    if (args.quick) {
        base.featureCap = 16;
        base.nodeDivisor = 16;
        base.edgeDivisor = 16;
    }

    banner("serving under load: continuous batching + faults",
           "model " + std::string(gnnModelName(base.model)) +
               ", dataset " + base.dataset + ", " +
               std::to_string(policy.lanes) + " lanes, horizon " +
               std::to_string(horizon / 1'000'000) +
               " Mcycles | offered load is a fraction of profiled "
               "capacity; goodput = completed within SLO");

    // ---- tracing (--trace): one sink for class profiling plus one
    // per point, merged into a single Perfetto-loadable file ----
    const bool tracing = !args.params.tracePath.empty();
    TraceSinkOptions sink_opts;
    sink_opts.enabled = true;
    TraceSink profile_sink(tracing ? sink_opts : TraceSinkOptions{});

    // ---- profile the request classes once per GPU ----
    const Graph graph = loadDatasetFor(base);
    struct GpuContext {
        GpuConfig config;
        std::vector<ClassCost> classes;
        double capacityPerMcycle = 0.0; ///< at full batch
        std::string scale;
    };
    std::map<std::string, GpuContext> contexts;
    const std::vector<std::string> gpus = split(base.gpu, ',');
    for (const std::string &spec : gpus) {
        GpuContext ctx;
        ctx.config = resolveGpuSpec(spec);
        ctx.scale = base.resolveScale().describe();
        SimOptions sim;
        sim.maxCtas = base.maxCtas;

        const ModelConfig primary_cfg = base.modelConfig();
        ModelConfig fallback_cfg = primary_cfg;
        fallback_cfg.layers = 1; // the smaller degrade variant
        // Only the first GPU's profiling lands in the trace: the
        // engine spans of further machines would stack onto the
        // same lane tracks.
        TraceSink *psink =
            tracing && contexts.empty() ? &profile_sink : nullptr;
        ctx.classes.push_back(profileClass(
            "primary", graph, primary_cfg, ctx.config, sim, psink));
        ctx.classes.push_back(profileClass(
            "fallback", graph, fallback_cfg, ctx.config, sim,
            psink));
        ctx.classes[0].fallbackClass = 1;

        // Service capacity: requests per Mcycle when the device
        // dispatches back-to-back full batches of the primary class.
        const std::vector<const ClassCost *> full(
            static_cast<size_t>(policy.maxBatch), &ctx.classes[0]);
        const std::vector<uint64_t> offsets =
            batchFinishOffsets(full, policy.lanes);
        uint64_t batch_cycles = 0;
        for (const uint64_t o : offsets)
            batch_cycles = std::max(batch_cycles, o);
        panicIf(batch_cycles == 0, "profiled batch cost is zero");
        ctx.capacityPerMcycle = 1e6 * policy.maxBatch /
                                static_cast<double>(batch_cycles);
        std::printf("%-12s primary %.3f Mcycles/request, capacity "
                    "%.1f req/Mcycle at batch %d\n",
                    spec.c_str(),
                    ctx.classes[0].serialCycles / 1e6,
                    ctx.capacityPerMcycle, policy.maxBatch);
        contexts.emplace(spec, std::move(ctx));
    }
    std::printf("\n");

    // ---- expand the grid: gpu x arrival x load x slo x fault ----
    std::vector<ServingPoint> points;
    for (const std::string &gpu : gpus)
        for (const std::string &arrival : arrivals) {
            const ArrivalSpec spec = parseArrivalSpec(arrival);
            const bool traced = spec.kind == ArrivalKind::Trace;
            for (const double load : loads) {
                if (traced && load != loads.front())
                    continue; // traces fix their own offered rate
                for (const double slo : slos)
                    for (const std::string &fault : faults) {
                        ServingPoint pt;
                        pt.index = points.size();
                        pt.gpuSpec = gpu;
                        pt.arrival = arrival;
                        pt.loadFactor = load;
                        pt.sloUs = slo;
                        pt.faultSpec = fault;
                        pt.label =
                            gpu + "/" +
                            arrivalKindName(spec.kind) +
                            (traced
                                 ? std::string()
                                 : "/off" + fmtAxisValue(load) +
                                       "x") +
                            "/slo" + fmtAxisValue(slo) + "us/" +
                            fault;
                        points.push_back(pt);
                    }
            }
        }

    // ---- run every point (deterministic: order-independent) ----
    ResultStore store;
    store.resize(points.size());
    // One pre-built sink per point: parallelFor lanes write only
    // their own slot, and merged export keeps point order.
    std::vector<std::unique_ptr<TraceSink>> point_sinks(
        points.size());
    if (tracing)
        for (auto &s : point_sinks)
            s = std::make_unique<TraceSink>(sink_opts);
    std::atomic<bool> determinism_ok{true};
    std::atomic<bool> faults_seen_ok{true};
    ThreadPool pool(args.params.sweepThreads > 0
                        ? args.params.sweepThreads
                        : ThreadPool::defaultLanes());
    pool.parallelFor(points.size(), [&](size_t i, int) {
        const ServingPoint &pt = points[i];
        const GpuContext &ctx = contexts.at(pt.gpuSpec);

        ArrivalSpec spec = parseArrivalSpec(pt.arrival);
        if (spec.kind != ArrivalKind::Trace)
            spec.ratePerMcycle =
                pt.loadFactor * ctx.capacityPerMcycle;

        const uint64_t slo_cycles = static_cast<uint64_t>(
            pt.sloUs * ctx.config.coreClockGhz * 1000.0);
        // The offered mix: mostly high-priority tight-SLO traffic
        // plus a low-priority background class with a lax deadline.
        std::vector<RequestProfile> profiles(2);
        profiles[0] = RequestProfile{0, 3.0, 1, slo_cycles};
        profiles[1] = RequestProfile{0, 1.0, 0, slo_cycles * 4};

        const std::vector<Request> requests = generateArrivals(
            spec, profiles, horizon, kArrivalSeed);
        const FaultPlan plan = resolveFaultPlanSpec(pt.faultSpec);

        TraceSink *sink =
            tracing ? point_sinks[pt.index].get() : nullptr;
        const ServingStats stats = runServing(
            policy, ctx.classes, requests, plan, horizon, sink);
        // Rerun-determinism gate: the whole pipeline again, from
        // arrival generation to percentiles, must be bit-identical
        // — and when tracing, so must the rerun's trace JSON.
        TraceSink rerun_sink(tracing ? sink_opts
                                     : TraceSinkOptions{});
        const ServingStats again = runServing(
            policy, ctx.classes,
            generateArrivals(spec, profiles, horizon, kArrivalSeed),
            plan, horizon, tracing ? &rerun_sink : nullptr);
        if (stats != again)
            determinism_ok = false;
        if (tracing &&
            sink->toChromeJson() != rerun_sink.toChromeJson())
            determinism_ok = false;
        if (plan.empty() &&
            (stats.retries != 0 || stats.failed != 0))
            faults_seen_ok = false;

        SweepResult result;
        result.point.index = pt.index;
        result.point.label = pt.label;
        result.point.variant = pt.faultSpec;
        result.point.params = base;
        result.point.params.gpu = pt.gpuSpec;
        result.ok = true;
        result.outcome.params = result.point.params;
        result.outcome.scaleDescription = ctx.scale;
        result.outcome.gpuConfigSnapshot =
            gpuConfigKeyValues(ctx.config);
        std::map<std::string, double> &m = result.outcome.metrics;
        m["offered_requests"] = static_cast<double>(stats.offered);
        m["completed_requests"] =
            static_cast<double>(stats.completed);
        m["goodput_requests"] = static_cast<double>(stats.goodput());
        m["shed_overflow"] = static_cast<double>(stats.shedOverflow);
        m["shed_deadline"] = static_cast<double>(stats.shedDeadline);
        m["shed_oversize"] = static_cast<double>(stats.shedOversize);
        m["failed_requests"] = static_cast<double>(stats.failed);
        m["retries"] = static_cast<double>(stats.retries);
        m["slo_violations"] =
            static_cast<double>(stats.sloViolations);
        m["batches"] = static_cast<double>(stats.batches);
        m["fallback_dispatches"] =
            static_cast<double>(stats.fallbackDispatches);
        m["shrink_batches"] =
            static_cast<double>(stats.shrinkedBatches);
        m["queue_depth_peak"] =
            static_cast<double>(stats.queueDepthPeak);
        m["busy_cycles"] = static_cast<double>(stats.busyCycles);
        m["end_cycles"] = static_cast<double>(stats.endCycle);
        m["p50_latency_cycles"] =
            static_cast<double>(stats.p50LatencyCycles);
        m["p95_latency_cycles"] =
            static_cast<double>(stats.p95LatencyCycles);
        m["p99_latency_cycles"] =
            static_cast<double>(stats.p99LatencyCycles);
        m["max_latency_cycles"] =
            static_cast<double>(stats.maxLatencyCycles);
        m["offered_rate_per_mcycle"] = spec.ratePerMcycle;
        if (sink) {
            m["obs_events"] =
                static_cast<double>(sink->eventCount());
            m["obs_spans"] = static_cast<double>(sink->spanCount());
            m["obs_instants"] =
                static_cast<double>(sink->instantCount());
            m["obs_counters"] =
                static_cast<double>(sink->counterCount());
            m["trace_dropped_events"] =
                static_cast<double>(sink->droppedEvents());
        }
        store.put(std::move(result));
    });

    // Any fault-injected plan must visibly perturb the run — a
    // plan that injects nothing is a plumbing regression. Fault
    // counters are the primary signal; a stall/pressure-only plan
    // legitimately leaves them at zero, so such points pass when
    // their timing differs from the fault-free twin point — and are
    // left ungated when no twin ran. Only plans that inject kernel
    // failures are required to show counters.
    std::map<std::string, const SweepResult *> byLabel;
    for (const auto &r : store)
        byLabel.emplace(r.point.label, &r);
    const char *timingKeys[] = {
        "completed_requests", "slo_violations",  "shed_overflow",
        "shed_deadline",      "queue_depth_peak", "batches",
        "fallback_dispatches", "busy_cycles",     "end_cycles",
        "p50_latency_cycles", "p95_latency_cycles",
        "p99_latency_cycles", "max_latency_cycles"};
    for (const auto &r : store) {
        if (r.point.variant == "none" || !r.ok)
            continue;
        const auto &m = r.outcome.metrics;
        const double counters = m.at("retries") +
                                m.at("failed_requests") +
                                m.at("shrink_batches") +
                                m.at("shed_oversize");
        if (counters > 0.0)
            continue;
        const std::string &label = r.point.label;
        const std::string twinLabel =
            label.substr(0, label.size() -
                                r.point.variant.size()) +
            "none";
        const auto twin = byLabel.find(twinLabel);
        if (twin != byLabel.end() && twin->second->ok) {
            bool differs = false;
            for (const char *key : timingKeys)
                differs = differs ||
                          m.at(key) !=
                              twin->second->outcome.metrics.at(key);
            if (differs)
                continue;
        }
        const FaultPlan plan =
            resolveFaultPlanSpec(r.point.variant);
        for (const FaultEvent &ev : plan.events(horizon))
            if (ev.kind == FaultKind::KernelFailure) {
                faults_seen_ok = false;
                break;
            }
    }

    auto metric = [](const SweepResult &r, const char *key) {
        return r.outcome.metrics.at(key);
    };
    TablePrinter table("serving: goodput vs offered load");
    table.header({"point", "offered", "done", "goodput", "shed",
                  "retry", "fail", "SLOmiss", "qpeak", "p50 Kcyc",
                  "p95 Kcyc", "p99 Kcyc"});
    for (const auto &r : store) {
        const double shed = metric(r, "shed_overflow") +
                            metric(r, "shed_deadline") +
                            metric(r, "shed_oversize");
        table.row({r.point.label,
                   fmtDouble(metric(r, "offered_requests"), 0),
                   fmtDouble(metric(r, "completed_requests"), 0),
                   fmtDouble(metric(r, "goodput_requests"), 0),
                   fmtDouble(shed, 0), fmtDouble(metric(r, "retries"), 0),
                   fmtDouble(metric(r, "failed_requests"), 0),
                   fmtDouble(metric(r, "slo_violations"), 0),
                   fmtDouble(metric(r, "queue_depth_peak"), 0),
                   fmtDouble(metric(r, "p50_latency_cycles") / 1e3, 1),
                   fmtDouble(metric(r, "p95_latency_cycles") / 1e3, 1),
                   fmtDouble(metric(r, "p99_latency_cycles") / 1e3, 1)});
    }
    table.print();

    std::printf("\nrerun determinism (per-point stats bit-identical "
                "twice): %s\n",
                determinism_ok ? "yes" : "NO");
    std::printf("fault plumbing (fault-free clean, fault plans "
                "perturb): %s\n",
                faults_seen_ok ? "yes" : "NO");

    store.toCsv(
        args.params.csvOut,
        {"label", "gpu", "fault_plan", "offered", "completed",
         "goodput", "shed_overflow", "shed_deadline",
         "shed_oversize", "failed", "retries", "slo_violations",
         "queue_depth_peak", "p50_latency_cycles",
         "p95_latency_cycles", "p99_latency_cycles"},
        [&](const SweepResult &r)
            -> std::vector<std::vector<std::string>> {
            auto c = [&](const char *k) {
                return fmtDouble(metric(r, k), 0);
            };
            return {{r.point.label, r.point.params.gpu,
                     r.point.variant, c("offered_requests"),
                     c("completed_requests"), c("goodput_requests"),
                     c("shed_overflow"), c("shed_deadline"),
                     c("shed_oversize"), c("failed_requests"),
                     c("retries"), c("slo_violations"),
                     c("queue_depth_peak"), c("p50_latency_cycles"),
                     c("p95_latency_cycles"),
                     c("p99_latency_cycles")}};
        });
    store.toJson(json_path,
                 {{"lanes", static_cast<double>(policy.lanes)},
                  {"horizon_mcycles",
                   static_cast<double>(horizon / 1'000'000)},
                  {"quick", args.quick ? 1.0 : 0.0}});
    std::printf("wrote %s\n", json_path.c_str());
    if (tracing) {
        std::vector<const TraceSink *> sinks;
        sinks.push_back(&profile_sink);
        for (const auto &s : point_sinks)
            sinks.push_back(s.get());
        TraceSink::writeMergedFile(args.params.tracePath, sinks);
        uint64_t dropped = 0;
        for (const TraceSink *s : sinks)
            dropped += s->droppedEvents();
        std::printf("wrote %s%s\n", args.params.tracePath.c_str(),
                    dropped ? " (WITH DROPPED EVENTS)" : "");
    }
    return store.allOk() && determinism_ok && faults_seen_ok ? 0 : 1;
}
