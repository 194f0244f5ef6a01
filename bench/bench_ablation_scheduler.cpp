/**
 * @file
 * Ablation A: warp scheduler policy (GTO vs LRR) on the GCN MP
 * kernels across datasets — the scheduler-study direction the paper
 * suggests ("focus on warp scheduling studies for better utilization
 * of the functional units").
 */

#include <cstdio>

#include "bench/BenchCommon.hpp"

using namespace gsuite;
using namespace gsuite::bench;

int
main(int argc, char **argv)
{
    const BenchArgs args(argc, argv);
    banner("Ablation: GTO vs LRR warp scheduling, GCN gSuite-MP",
           "Cycles per kernel class and the LRR/GTO ratio.");

    const SweepSpec spec =
        SweepSpec{}
            .base(args.simBase())
            .variants({{"gto",
                        [](UserParams &p) {
                            p.scheduler = SchedulerPolicy::Gto;
                        }},
                       {"lrr",
                        [](UserParams &p) {
                            p.scheduler = SchedulerPolicy::Lrr;
                        }}})
            .datasets(paperDatasets());

    const ResultStore store =
        BenchSession(args.sessionOptions()).run(spec);

    CsvWriter csv(args.params.csvOut);
    csv.header({"dataset", "kernel", "gto_cycles", "lrr_cycles",
                "lrr_over_gto"});

    TablePrinter table;
    table.header({"dataset", "kernel", "GTO cycles", "LRR cycles",
                  "LRR/GTO"});
    for (const DatasetId id : paperDatasets()) {
        const std::string ds = datasetInfo(id).name;
        auto policyRun = [&](const char *variant) {
            return store.find([&](const SweepPoint &pt) {
                return pt.variant == variant &&
                       pt.params.dataset == ds;
            });
        };
        const SweepResult *gto = policyRun("gto");
        const SweepResult *lrr = policyRun("lrr");
        if (!gto || !gto->ok || !lrr || !lrr->ok)
            continue;
        for (const KernelClass cls :
             {KernelClass::Sgemm, KernelClass::IndexSelect,
              KernelClass::Scatter}) {
            const auto git = gto->simByClass.find(cls);
            const auto lit = lrr->simByClass.find(cls);
            if (git == gto->simByClass.end() ||
                lit == lrr->simByClass.end())
                continue;
            const double ratio =
                static_cast<double>(lit->second.cycles) /
                static_cast<double>(git->second.cycles);
            table.row({dsShort(id), kernelClassShortForm(cls),
                       std::to_string(git->second.cycles),
                       std::to_string(lit->second.cycles),
                       fmtDouble(ratio, 3)});
            csv.row({dsShort(id), kernelClassShortForm(cls),
                     std::to_string(git->second.cycles),
                     std::to_string(lit->second.cycles),
                     fmtDouble(ratio, 4)});
        }
    }
    table.print();
    return 0;
}
