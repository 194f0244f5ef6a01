/**
 * @file
 * Ablation B: L1 bypass for global loads — the paper's Section V-D5
 * suggestion ("extremely low L1D cache hit rates point out that
 * caching may not be a good technique for GNN-Inference; L1 cache
 * bypassing techniques can be considered").
 */

#include <cstdio>

#include "bench/BenchCommon.hpp"

using namespace gsuite;
using namespace gsuite::bench;

int
main(int argc, char **argv)
{
    const BenchArgs args(argc, argv);
    banner("Ablation: L1 load bypass, gSuite-MP kernels",
           "Cycles with the sectored L1 vs with global loads routed "
           "straight to L2; <1.0 speedup means the L1 was helping.");

    const SweepSpec spec =
        SweepSpec{}
            .base(args.simBase())
            .variants({{"l1",
                        [](UserParams &p) {
                            p.l1BypassLoads = false;
                        }},
                       {"bypass",
                        [](UserParams &p) {
                            p.l1BypassLoads = true;
                        }}})
            .models({GnnModelKind::Gcn, GnnModelKind::Gin})
            .datasets(paperDatasets());

    const ResultStore store =
        BenchSession(args.sessionOptions()).run(spec);

    CsvWriter csv(args.params.csvOut);
    csv.header({"model", "dataset", "kernel", "l1_cycles",
                "bypass_cycles", "bypass_speedup", "l1_hit_rate"});

    TablePrinter table;
    table.header({"model", "dataset", "kernel", "L1 cycles",
                  "bypass cycles", "speedup", "L1 hit% (on)"});
    for (const GnnModelKind model :
         {GnnModelKind::Gcn, GnnModelKind::Gin}) {
        for (const DatasetId id : paperDatasets()) {
            const std::string ds = datasetInfo(id).name;
            auto variantRun = [&](const char *variant) {
                return store.find([&](const SweepPoint &pt) {
                    return pt.variant == variant &&
                           pt.params.model == model &&
                           pt.params.dataset == ds;
                });
            };
            const SweepResult *on = variantRun("l1");
            const SweepResult *off = variantRun("bypass");
            if (!on || !on->ok || !off || !off->ok)
                continue;
            for (const KernelClass cls :
                 {KernelClass::IndexSelect, KernelClass::Scatter}) {
                const auto oit = on->simByClass.find(cls);
                const auto fit = off->simByClass.find(cls);
                if (oit == on->simByClass.end() ||
                    fit == off->simByClass.end())
                    continue;
                const double speedup =
                    static_cast<double>(oit->second.cycles) /
                    static_cast<double>(fit->second.cycles);
                table.row({gnnModelName(model), dsShort(id),
                           kernelClassShortForm(cls),
                           std::to_string(oit->second.cycles),
                           std::to_string(fit->second.cycles),
                           fmtDouble(speedup, 3),
                           pct(oit->second.l1HitRate())});
                csv.row({gnnModelName(model), dsShort(id),
                         kernelClassShortForm(cls),
                         std::to_string(oit->second.cycles),
                         std::to_string(fit->second.cycles),
                         fmtDouble(speedup, 4),
                         pct(oit->second.l1HitRate())});
            }
        }
    }
    table.print();
    return 0;
}
