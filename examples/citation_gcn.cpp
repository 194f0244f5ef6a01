/**
 * @file
 * Citation-network node classification — the paper's canonical GNN
 * workload (Cora/CiteSeer/PubMed) driven entirely through the
 * suite's Fig. 1 user interface: parameters (or a config file) in,
 * benchmark report out.
 *
 * Every run is a declarative sweep executed by BenchSession: one
 * point per --dataset entry (a single dataset is a one-point sweep),
 * run concurrently up to --sweep-threads. --csv writes the
 * per-kernel timeline of every point.
 *
 * Usage:
 *   citation_gcn --dataset citeseer --model gcn --comp spmm
 *   citation_gcn --config gsuite.conf --engine sim
 *   citation_gcn --dataset cora,citeseer,pubmed --sweep-threads 3 \
 *       --csv kernels.csv
 */

#include <cstdio>

#include "suite/BenchSession.hpp"
#include "util/Csv.hpp"

using namespace gsuite;

int
main(int argc, char **argv)
{
    const UserParams params = UserParams::fromArgs(argc, argv);
    std::printf("running %s\n", params.describe().c_str());

    BenchSession::Options sopts;
    sopts.sweepThreads = params.sweepThreads;
    sopts.progress = [](const SweepResult &r, size_t done,
                        size_t total) {
        std::printf("[%zu/%zu] %s %s\n", done, total,
                    r.point.label.c_str(),
                    r.ok ? "done" : ("FAILED: " + r.error).c_str());
    };

    const ResultStore store =
        BenchSession(sopts).run(SweepSpec{}.base(params));

    std::printf("\n");
    store.printTable("citation sweep (" +
                     std::string(gnnModelName(params.model)) + ")");
    // One row per kernel per point; sim columns only on sim points.
    store.toCsv(
        params.csvOut,
        {"label", "kernel", "class", "wall_us", "sim_cycles",
         "memdep_share", "l1_hit_rate", "l2_hit_rate"},
        [](const SweepResult &r) {
            std::vector<std::vector<std::string>> rows;
            for (const KernelRecord &rec : r.outcome.timeline) {
                std::vector<std::string> row = {
                    r.point.label, rec.name, kernelClassName(rec.kind),
                    fmtDouble(rec.wallUs, 2)};
                if (rec.hasSim)
                    row.insert(
                        row.end(),
                        {std::to_string(rec.sim.cycles),
                         fmtDouble(rec.sim.stallShare(
                                       StallReason::MemoryDependency),
                                   4),
                         fmtDouble(rec.sim.l1HitRate(), 4),
                         fmtDouble(rec.sim.l2HitRate(), 4)});
                rows.push_back(std::move(row));
            }
            return rows;
        });
    if (!params.csvOut.empty())
        std::printf("wrote %s\n", params.csvOut.c_str());
    return store.allOk() ? 0 : 1;
}
