/**
 * @file
 * Memory-planner bench: plan-vs-naive peak device memory for every
 * GNN model at several batch sizes, plus budget-constrained points
 * where the planner must slice the batch into waves (merged graphs)
 * or spill/reload intermediates (single pipelines).
 *
 * Every metric is a pure function of the op-graph — byte counts,
 * wave/spill counts and fit flags are bit-identical across reruns,
 * sweep-thread counts and machines, and gated as deterministic by
 * scripts/compare_bench_json.py. The peak ratio column is the
 * paper-facing number: how much of the naive bump-allocator
 * footprint a lifetime-aware plan actually needs.
 *
 *   --batches LIST  batch sizes to merge (default 1,2,4; quick 1,2)
 *   --budgets LIST  budget fractions of the planned peak; 1 =
 *                   unbudgeted (default 1,0.75,0.5)
 *   --dataset NAME  dataset (default cora, sim scale)
 *   --json FILE     output path (default BENCH_memplan.json)
 *   --trace FILE    Chrome-trace JSON: per-point engine schedule
 *                   spans + memplan high-water and spill/reload
 *                   tracks, one pid group per point
 *   plus the standard --csv/--quick/--layers/--sweep-threads.
 */

#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/BenchCommon.hpp"
#include "engine/ExecutionEngine.hpp"
#include "hwdb/KeyValueFile.hpp"
#include "memplan/MemPlan.hpp"
#include "obs/TraceSink.hpp"
#include "models/GnnModel.hpp"
#include "suite/Runner.hpp"
#include "util/Logging.hpp"
#include "util/StringUtils.hpp"
#include "util/Table.hpp"
#include "util/ThreadPool.hpp"

using namespace gsuite;
using namespace gsuite::bench;

namespace {

std::vector<int>
parseBatchList(const std::string &list)
{
    std::vector<int> out;
    for (const std::string &part : split(list, ',')) {
        int64_t v;
        if (!parseInt(trim(part), v) || v < 1 || v > 64)
            fatal("--batches needs sizes in [1,64], got '%s'",
                  part.c_str());
        out.push_back(static_cast<int>(v));
    }
    if (out.empty())
        fatal("--batches must name at least one size");
    return out;
}

std::vector<double>
parseBudgetFractions(const std::string &list)
{
    std::vector<double> out;
    for (const std::string &part : split(list, ',')) {
        double v;
        if (!parseDouble(trim(part), v) || v <= 0.0 || v > 1.0)
            fatal("--budgets needs fractions in (0,1], got '%s'",
                  part.c_str());
        out.push_back(v);
    }
    if (out.empty())
        fatal("--budgets must name at least one fraction");
    return out;
}

struct PlanPoint {
    size_t index = 0;
    GnnModelKind model = GnnModelKind::Gcn;
    int batch = 1;
    double budgetFraction = 1.0; ///< 1 = unbudgeted
    std::string label;
};

} // namespace

int
main(int argc, char **argv)
{
    OptionSet cli;
    cli.parseArgs(argc, argv);
    const BenchArgs args(cli, {"dataset"});
    const std::string json_path =
        cli.getString("json", "BENCH_memplan.json");
    const std::vector<int> batches = parseBatchList(
        cli.getString("batches", args.quick ? "1,2" : "1,2,4"));
    const std::vector<double> budgets = parseBudgetFractions(
        cli.getString("budgets", "1,0.75,0.5"));

    cli.rejectUnread();
    UserParams base = args.simBase();
    base.comp = CompModel::Mp; // supported by all four models
    base.memPlan = true;
    if (args.quick) {
        base.featureCap = 16;
        base.nodeDivisor = 16;
        base.edgeDivisor = 16;
    }

    banner("memory planning: lifetime reuse vs naive bump layout",
           "dataset " + base.dataset +
               ", MP kernels | planned peak is the exact footprint "
               "a lifetime-aware allocator needs; budget points "
               "slice batches into waves or spill intermediates");

    const Graph graph = loadDatasetFor(base);
    const std::string scale = base.resolveScale().describe();

    const std::vector<GnnModelKind> models = {
        GnnModelKind::Gcn, GnnModelKind::Gin, GnnModelKind::Sage,
        GnnModelKind::Gat};
    std::vector<PlanPoint> points;
    for (const GnnModelKind model : models)
        for (const int batch : batches)
            for (const double frac : budgets) {
                PlanPoint pt;
                pt.index = points.size();
                pt.model = model;
                pt.batch = batch;
                pt.budgetFraction = frac;
                pt.label = std::string(gnnModelName(model)) + "/b" +
                           std::to_string(batch) +
                           (frac >= 1.0
                                ? std::string("/unbudgeted")
                                : "/bud" + fmtTrimmedDouble(frac));
                points.push_back(pt);
            }

    ResultStore store;
    store.resize(points.size());
    // One pre-built sink per point (--trace): parallelFor lanes
    // write only their own slot; merged export keeps point order.
    const bool tracing = !args.params.tracePath.empty();
    TraceSinkOptions sink_opts;
    sink_opts.enabled = true;
    std::vector<std::unique_ptr<TraceSink>> point_sinks(
        points.size());
    if (tracing)
        for (auto &s : point_sinks)
            s = std::make_unique<TraceSink>(sink_opts);
    std::atomic<bool> planned_le_naive{true};
    ThreadPool pool(args.params.sweepThreads > 0
                        ? args.params.sweepThreads
                        : ThreadPool::defaultLanes());
    pool.parallelFor(points.size(), [&](size_t i, int) {
        const PlanPoint &pt = points[i];
        UserParams params = base;
        params.model = pt.model;
        ModelConfig cfg = params.modelConfig();

        // Size every replica's spans, then plan the batch graph.
        std::vector<std::unique_ptr<GnnPipeline>> reps;
        std::vector<const OpGraph *> ptrs;
        for (int b = 0; b < pt.batch; ++b) {
            reps.push_back(
                std::make_unique<GnnPipeline>(graph, cfg));
            FunctionalEngine sizer;
            reps.back()->run(sizer);
            ptrs.push_back(&reps.back()->opGraph());
        }
        OpGraph mergedStorage;
        if (pt.batch > 1)
            mergedStorage = OpGraph::merge(ptrs);
        const OpGraph &ops =
            pt.batch > 1 ? mergedStorage : *ptrs[0];

        // The wired path: a plan-backed level-parallel run whose
        // report carries the planner's accounting.
        FunctionalEngine engine;
        engine.setMemPlanMode(true, 0);
        TraceSink *sink =
            tracing ? point_sinks[pt.index].get() : nullptr;
        engine.setTraceSink(sink);
        engine.run(ops);
        const GraphRunReport &rep = engine.lastGraphReport();
        panicIf(!rep.planned, "pipeline graph lost span coverage");
        if (rep.memPeakPlannedBytes > rep.memPeakNaiveBytes)
            planned_le_naive = false;

        const MemPlan plan = MemPlan::build(ops);
        plan.verify(ops);

        uint64_t budget_bytes = 0;
        uint64_t final_peak = rep.memPeakPlannedBytes;
        uint64_t waves = 1;
        uint64_t spills = 0;
        bool fits = true;
        bool sliced = false;
        if (pt.budgetFraction < 1.0) {
            budget_bytes = static_cast<uint64_t>(
                static_cast<double>(plan.peakBytes()) *
                pt.budgetFraction);
            budget_bytes = std::max<uint64_t>(budget_bytes, 1);
            if (pt.batch > 1) {
                MemPlan::Options opts;
                opts.budgetBytes = budget_bytes;
                const MemPlan b = MemPlan::build(ops, opts);
                b.verify(ops);
                waves = b.numWaves();
                fits = b.fitsBudget();
                final_peak = b.peakBytes();
                sliced = waves > 1;
            } else {
                SpilledGraph sp = spillToBudget(ops, budget_bytes);
                sp.graph.validate();
                sp.plan.verify(sp.graph);
                spills = sp.spills;
                fits = sp.plan.fitsBudget();
                final_peak = sp.plan.peakBytes();
                sliced = spills > 0;
            }
        }

        SweepResult result;
        result.point.index = pt.index;
        result.point.label = pt.label;
        result.point.variant =
            pt.budgetFraction < 1.0 ? "budgeted" : "unbudgeted";
        result.point.params = params;
        result.ok = true;
        result.outcome.params = params;
        result.outcome.scaleDescription = scale;
        std::map<std::string, double> &m = result.outcome.metrics;
        m["mem_peak_planned_bytes"] =
            static_cast<double>(rep.memPeakPlannedBytes);
        m["mem_peak_naive_bytes"] =
            static_cast<double>(rep.memPeakNaiveBytes);
        m["mem_shared_arena_bytes"] =
            static_cast<double>(plan.sharedArenaBytes());
        m["mem_budget_bytes"] = static_cast<double>(budget_bytes);
        m["mem_final_peak_bytes"] = static_cast<double>(final_peak);
        m["plan_peak_ratio"] =
            static_cast<double>(rep.memPeakPlannedBytes) /
            static_cast<double>(rep.memPeakNaiveBytes);
        m["plan_waves"] = static_cast<double>(waves);
        m["plan_spills"] = static_cast<double>(spills);
        m["plan_fits_budget"] = fits ? 1.0 : 0.0;
        m["plan_sliced"] = sliced ? 1.0 : 0.0;
        m["graph_nodes"] = static_cast<double>(rep.nodes);
        m["graph_max_level_width"] =
            static_cast<double>(rep.maxLevelWidth);
        if (sink) {
            m["obs_events"] =
                static_cast<double>(sink->eventCount());
            m["obs_spans"] = static_cast<double>(sink->spanCount());
            m["obs_counters"] =
                static_cast<double>(sink->counterCount());
            m["trace_dropped_events"] =
                static_cast<double>(sink->droppedEvents());
        }
        store.put(std::move(result));
    });

    panicIf(!planned_le_naive,
            "planned peak exceeded the naive layout on some point");

    TablePrinter table("planned vs naive peak device memory");
    table.header({"point", "planned", "naive", "ratio", "budget",
                  "final", "waves", "spills", "fits"});
    for (const SweepResult &r : store) {
        const auto &m = r.outcome.metrics;
        table.row(
            {r.point.label,
             formatBytes(
                 static_cast<uint64_t>(m.at("mem_peak_planned_bytes"))),
             formatBytes(
                 static_cast<uint64_t>(m.at("mem_peak_naive_bytes"))),
             fmtDouble(m.at("plan_peak_ratio"), 3),
             m.at("mem_budget_bytes") == 0
                 ? std::string("-")
                 : formatBytes(static_cast<uint64_t>(
                       m.at("mem_budget_bytes"))),
             formatBytes(
                 static_cast<uint64_t>(m.at("mem_final_peak_bytes"))),
             fmtDouble(m.at("plan_waves"), 0),
             fmtDouble(m.at("plan_spills"), 0),
             m.at("plan_fits_budget") > 0 ? "yes" : "NO"});
    }
    std::fputs(table.render().c_str(), stdout);

    store.toJson(json_path);
    if (!args.params.csvOut.empty())
        store.toCsv(args.params.csvOut);
    if (tracing) {
        std::vector<const TraceSink *> sinks;
        for (const auto &s : point_sinks)
            sinks.push_back(s.get());
        TraceSink::writeMergedFile(args.params.tracePath, sinks);
        std::printf("wrote %s\n", args.params.tracePath.c_str());
    }
    std::printf("\nwrote %s (%zu points)\n", json_path.c_str(),
                points.size());
    return 0;
}
