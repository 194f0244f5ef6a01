/**
 * @file
 * Ablation D: memory-access divergence of the gather kernel vs
 * feature width — the mechanism behind the paper's irregularity
 * observations. With wide features, a warp's 32 lanes walk one
 * (random) row contiguously; with f=1, every lane hits a different
 * random row and each load shatters into up to 32 sectors.
 */

#include <cstdio>

#include "bench/BenchCommon.hpp"
#include "kernels/IndexSelect.hpp"

using namespace gsuite;
using namespace gsuite::bench;

int
main(int argc, char **argv)
{
    const BenchArgs args(argc, argv);
    banner("Ablation: indexSelect divergence vs feature width",
           "Sectors per global load (1 = perfectly coalesced, 32 = "
           "fully divergent), with the resulting L1 hit rate and "
           "cycles. PubMed-sized synthetic graph.");

    std::vector<SweepVariant> widths;
    for (const int64_t f : {1, 4, 16, 64, 256}) {
        widths.push_back({std::to_string(f), [f](UserParams &p) {
                              p.featureCap = f;
                          }});
    }

    const SweepSpec spec = SweepSpec{}
                               .base(args.simBase())
                               .variants(widths)
                               .datasets({DatasetId::PubMed});

    // Custom point runner: a bare gather kernel (no pipeline), fed
    // straight through the timing simulator.
    const ResultStore store =
        BenchSession(args.sessionOptions())
            .run(spec, [](const SweepPoint &pt) {
                RunOutcome out;
                out.params = pt.params;
                out.scaleDescription =
                    pt.params.resolveScale().describe();
                const Graph g = loadDatasetFor(pt.params);
                out.graphSummary = g.summary();

                DenseMatrix result;
                IndexSelectKernel k("is", g.features, g.src, result);
                k.execute();

                auto engine =
                    AbstractionModule::makeEngine(pt.params);
                engine->run(k);
                out.timeline = engine->timeline();
                return out;
            });

    CsvWriter csv(args.params.csvOut);
    csv.header({"feature_width", "sectors_per_mem_instr",
                "l1_hit_rate", "memdep_share", "cycles"});

    TablePrinter table;
    table.header({"f", "sectors/instr", "L1 hit%", "MemDep%",
                  "cycles"});
    for (const auto &r : store) {
        if (!r.ok)
            continue;
        const KernelStats &s = r.outcome.timeline.back().sim;
        table.row({r.point.variant, fmtDouble(s.divergence(), 2),
                   pct(s.l1HitRate()),
                   pct(s.stallShare(StallReason::MemoryDependency)),
                   std::to_string(s.cycles)});
        csv.row({r.point.variant, fmtDouble(s.divergence(), 4),
                 fmtDouble(s.l1HitRate(), 4),
                 fmtDouble(
                     s.stallShare(StallReason::MemoryDependency), 4),
                 std::to_string(s.cycles)});
    }
    table.print();
    std::printf("\nExpected: divergence falls as f grows (lanes "
                "share rows); hit rates rise with spatial reuse.\n");
    return 0;
}
