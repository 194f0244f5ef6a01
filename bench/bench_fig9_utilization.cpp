/**
 * @file
 * Fig. 9: compute and memory utilization levels of the MP kernels on
 * varying GNN models and datasets.
 *
 * Expected shape: scatter drives memory harder than the other
 * kernels (streamed reads + L2 atomics), especially in GIN/SAG where
 * it runs at full feature width; sgemm's utilization scales up with
 * the workload (largest on LJ-scale inputs).
 */

#include <cstdio>

#include "bench/BenchCommon.hpp"

using namespace gsuite;
using namespace gsuite::bench;

int
main(int argc, char **argv)
{
    const BenchArgs args(argc, argv);
    banner("Fig. 9: compute/memory utilization, gSuite-MP kernels "
           "(%)",
           "compute = ALU issue-slot occupancy; memory = DRAM "
           "bandwidth fraction.");

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
             {KernelClass::Sgemm, KernelClass::IndexSelect,
              KernelClass::Scatter}) {
            auto it = r.simByClass.find(cls);
            if (it == r.simByClass.end())
                continue;
            const KernelStats &s = it->second;
            out.push_back({gnnModelName(r.point.params.model),
                           dsShortByName(r.point.params.dataset),
                           kernelClassShortForm(cls),
                           pct(s.computeUtilization()),
                           pct(s.memoryUtilization())});
        }
        return out;
    };

    CsvWriter csv(args.params.csvOut);
    csv.header({"model", "dataset", "kernel", "compute", "memory"});
    TablePrinter table;
    table.header({"model", "dataset", "kernel", "compute%",
                  "memory%"});
    for (const auto &r : store) {
        for (const auto &row : rows(r)) {
            table.row(row);
            csv.row(row);
        }
    }
    table.print();
    return store.allOk() ? 0 : 1;
}
