/**
 * @file
 * Fig. 7: warp occupancy distribution of the gSuite-MP kernels on
 * varying GNN models and datasets.
 *
 * Expected shape: GCN's MP kernels (operating on the post-sgemm
 * hidden width) idle heavily on small datasets; sgemm is insensitive
 * to the GNN model; W32 dominates whenever instructions do issue.
 *
 * This is the 15-point (3 models x 5 datasets) sweep; pass
 * --sweep-threads N to simulate points concurrently.
 */

#include <cstdio>

#include "bench/BenchCommon.hpp"

using namespace gsuite;
using namespace gsuite::bench;

int
main(int argc, char **argv)
{
    const BenchArgs args(argc, argv);
    banner("Fig. 7: warp occupancy distribution, gSuite-MP kernels "
           "(%)",
           "Per scheduler-cycle: Stall (ready warp blocked by the "
           "pipeline), Idle (no warp ready), or issued with <=8, "
           "<=20, <=32 active threads.");

    const SweepSpec spec = SweepSpec{}
                               .base(args.simBase())
                               .models(paperModels())
                               .datasets(paperDatasets());

    const ResultStore store =
        BenchSession(args.sessionOptions()).run(spec);

    auto rows = [](const SweepResult &r)
        -> std::vector<std::vector<std::string>> {
        std::vector<std::vector<std::string>> out;
        if (!r.ok)
            return out;
        for (const KernelClass cls :
             {KernelClass::Sgemm, KernelClass::Scatter,
              KernelClass::IndexSelect}) {
            auto it = r.simByClass.find(cls);
            if (it == r.simByClass.end())
                continue;
            const KernelStats &s = it->second;
            out.push_back({gnnModelName(r.point.params.model),
                           dsShortByName(r.point.params.dataset),
                           kernelClassShortForm(cls),
                           pct(s.occShare(OccBucket::Stall)),
                           pct(s.occShare(OccBucket::Idle)),
                           pct(s.occShare(OccBucket::W8)),
                           pct(s.occShare(OccBucket::W20)),
                           pct(s.occShare(OccBucket::W32))});
        }
        return out;
    };

    CsvWriter csv(args.params.csvOut);
    csv.header({"model", "dataset", "kernel", "Stall", "Idle", "W8",
                "W20", "W32"});
    TablePrinter table;
    table.header({"model", "dataset", "kernel", "Stall%", "Idle%",
                  "W8%", "W20%", "W32%"});
    for (const auto &r : store) {
        for (const auto &row : rows(r)) {
            table.row(row);
            csv.row(row);
        }
    }
    table.print();
    return store.allOk() ? 0 : 1;
}
