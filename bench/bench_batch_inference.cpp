/**
 * @file
 * Batched-inference throughput bench — the op-graph IR's headline
 * scenario: N independent inference requests composed into one
 * dataflow graph (OpGraph::merge) whose roots all issue
 * concurrently across SimEngine's launch lanes.
 *
 * For each batch size the bench reports the deterministic overlap
 * model of the merged graph (serial cycles, critical path, and the
 * lane-makespan — see ExecutionEngine::run(OpGraph&)) plus the
 * derived simulated throughput in graphs per simulated second, and
 * verifies the two batching contracts:
 *   1. overlap: batch-N makespan < N x the batch-1 makespan on a
 *      multi-lane engine;
 *   2. isolation: every replica's per-kernel statistics are
 *      bit-identical to the unbatched run.
 *
 *   --batches LIST  comma-separated batch sizes (default 1,2,4,8;
 *                   --quick: 1,2,4)
 *   --lanes N       concurrent launch lanes (default 4)
 *   --model NAME    gcn (default), gin, sage, gat
 *   --dataset NAME  Table IV dataset (default cora)
 *   --json FILE     output path (default BENCH_batch_inference.json)
 *   plus the standard --csv/--quick/--layers/--gpu/--sweep-threads.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/BenchCommon.hpp"
#include "util/Logging.hpp"
#include "util/StringUtils.hpp"

using namespace gsuite;
using namespace gsuite::bench;

namespace {

double
metricOf(const SweepResult &r, const char *key)
{
    const auto it = r.outcome.metrics.find(key);
    return it == r.outcome.metrics.end() ? 0.0 : it->second;
}

double
clockGhzOf(const SweepResult &r)
{
    for (const auto &[key, value] : r.outcome.gpuConfigSnapshot)
        if (key == "core.clock_ghz")
            return std::stod(value);
    return 1.0;
}

} // namespace

int
main(int argc, char **argv)
{
    OptionSet cli;
    cli.parseArgs(argc, argv);
    const std::string json_path =
        cli.getString("json", "BENCH_batch_inference.json");
    const BenchArgs args(cli, {"dataset", "model"});
    const int lanes = static_cast<int>(cli.getInt("lanes", 4));

    std::vector<int> batches;
    for (const std::string &part : split(
             cli.getString("batches", args.quick ? "1,2,4"
                                                 : "1,2,4,8"),
             ',')) {
        const std::string t = trim(part);
        char *end = nullptr;
        const long v =
            t.empty() ? 0 : std::strtol(t.c_str(), &end, 10);
        if (t.empty() || end == nullptr || *end != '\0' || v < 1 ||
            v > 4096)
            fatal("--batches needs positive integers, got '%s'",
                  t.c_str());
        batches.push_back(static_cast<int>(v));
    }
    if (batches.empty() || batches.front() != 1)
        fatal("--batches must start at 1 (the unbatched baseline)");

    cli.rejectUnread();
    UserParams base = args.simBase();
    base.comp = CompModel::Mp;
    // The lanes ARE the measured concurrency: launches simulate
    // single-threaded on their own lane, deterministically.
    base.simThreads = 1;
    base.simParallelLaunches = lanes;
    if (args.quick) {
        base.featureCap = 16;
        base.nodeDivisor = 16;
        base.edgeDivisor = 16;
    }

    banner("batched inference over the op-graph IR",
           "model " + std::string(gnnModelName(base.model)) +
               ", dataset " + base.dataset + ", " +
               std::to_string(lanes) +
               " launch lanes | batch-N merged graphs, roots "
               "issue concurrently");

    const SweepSpec spec = SweepSpec{}.base(base).batches(batches);
    const ResultStore store =
        BenchSession(args.sessionOptions()).run(spec);

    const SweepResult *baseline = nullptr;
    for (const auto &r : store)
        if (r.ok && r.point.params.batch == 1)
            baseline = &r;
    if (!baseline)
        fatal("batch-1 baseline point failed");
    const double base_makespan =
        metricOf(*baseline, "graph_makespan_cycles");
    const size_t base_kernels = baseline->outcome.timeline.size();

    TablePrinter table("simulated batched-inference throughput");
    table.header({"batch", "kernels", "serial Mcyc", "makespan Mcyc",
                  "critical Mcyc", "sim ms", "graphs/s", "speedup",
                  "per-graph stats"});
    bool overlap_ok = true;
    bool isolation_ok = true;
    for (const auto &r : store) {
        if (!r.ok) {
            table.row({r.point.label, "FAIL: " + r.error});
            overlap_ok = false;
            continue;
        }
        const int batch = r.point.params.batch;
        const double serial = metricOf(r, "graph_serial_cycles");
        const double makespan =
            metricOf(r, "graph_makespan_cycles");
        const double critical =
            metricOf(r, "graph_critical_path_cycles");
        const double ghz = clockGhzOf(r);
        const double sim_ms = makespan / (ghz * 1e6);
        const double graphs_per_s =
            sim_ms > 0.0 ? batch / (sim_ms / 1e3) : 0.0;
        // Speedup over running the batch as N serial single-graph
        // makespans — the overlap the dependency scheduling buys.
        const double speedup =
            makespan > 0.0 ? batch * base_makespan / makespan : 0.0;
        if (batch > 1 && makespan >= batch * base_makespan)
            overlap_ok = false;

        // Isolation: every replica's timeline slice must be
        // bit-identical (cycle counts) to the unbatched run.
        bool slices_equal =
            r.outcome.timeline.size() ==
            static_cast<size_t>(batch) * base_kernels;
        for (size_t p = 0; slices_equal &&
                           p < static_cast<size_t>(batch);
             ++p)
            for (size_t i = 0; i < base_kernels; ++i) {
                const auto &mine =
                    r.outcome.timeline[p * base_kernels + i];
                const auto &ref = baseline->outcome.timeline[i];
                if (!mine.hasSim || !ref.hasSim ||
                    mine.sim.cycles != ref.sim.cycles ||
                    mine.sim.warpInstrs != ref.sim.warpInstrs) {
                    slices_equal = false;
                    break;
                }
            }
        isolation_ok = isolation_ok && slices_equal;

        table.row({std::to_string(batch),
                   std::to_string(r.outcome.timeline.size()),
                   fmtDouble(serial / 1e6, 3),
                   fmtDouble(makespan / 1e6, 3),
                   fmtDouble(critical / 1e6, 3),
                   fmtDouble(sim_ms, 3), fmtDouble(graphs_per_s, 1),
                   fmtDouble(speedup, 2) + "x",
                   slices_equal ? "bit-identical" : "DRIFT"});
    }
    table.print();

    std::printf("multi-launch overlap (batch-N makespan < N x "
                "batch-1): %s\n",
                overlap_ok ? "yes" : "NO");
    std::printf("per-graph isolation (replica stats == unbatched): "
                "%s\n",
                isolation_ok ? "yes" : "NO");

    store.toCsv(args.params.csvOut);
    store.toJson(json_path,
                 {{"lanes", static_cast<double>(lanes)},
                  {"quick", args.quick ? 1.0 : 0.0}});
    std::printf("wrote %s\n", json_path.c_str());
    return store.allOk() && overlap_ok && isolation_ok ? 0 : 1;
}
