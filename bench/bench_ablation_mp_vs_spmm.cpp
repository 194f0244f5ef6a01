/**
 * @file
 * Ablation C: MP vs SpMM kernel-level cost as the feature width
 * sweeps — quantifying the computational-model choice the paper
 * argues characterization studies must not hard-code.
 *
 * MP materializes an [|E| x f] message buffer and pays gather +
 * atomic-scatter per element; SpMM reduces rows in place. The sweep
 * locates where (and whether) the two models cross over per dataset.
 */

#include <cstdio>

#include "bench/BenchCommon.hpp"

using namespace gsuite;
using namespace gsuite::bench;

int
main(int argc, char **argv)
{
    const BenchArgs args(argc, argv);
    banner("Ablation: MP vs SpMM kernel time, GCN, feature sweep",
           "Functional kernel wall-clock (no framework overheads), "
           "2-layer GCN, hidden width = feature cap.");

    // Feature-width steps as sweep variants; runs=2 gives a warm-up
    // run plus the measured run (the last kernel-time sample).
    std::vector<SweepVariant> widths;
    for (const int64_t fcap : {8, 32, 128}) {
        widths.push_back({std::to_string(fcap),
                          [fcap](UserParams &p) {
                              p.featureCap = fcap;
                              p.hidden = static_cast<int>(fcap);
                          }});
    }

    const SweepSpec spec =
        SweepSpec{}
            .base(args.functionalBase())
            .runs(2)
            .variants(widths)
            .comps({CompModel::Mp, CompModel::Spmm})
            .datasets({DatasetId::Cora, DatasetId::PubMed,
                       DatasetId::Reddit});

    const ResultStore store =
        BenchSession(args.sessionOptions()).run(spec);

    CsvWriter csv(args.params.csvOut);
    csv.header({"dataset", "feature_cap", "mp_ms", "spmm_ms",
                "mp_over_spmm"});

    TablePrinter table;
    table.header({"dataset", "f", "MP kernel ms", "SpMM kernel ms",
                  "MP/SpMM"});
    for (const DatasetId id :
         {DatasetId::Cora, DatasetId::PubMed, DatasetId::Reddit}) {
        const std::string ds = datasetInfo(id).name;
        for (const SweepVariant &width : widths) {
            auto compRun = [&](CompModel comp) {
                return store.find([&](const SweepPoint &pt) {
                    return pt.variant == width.label &&
                           pt.params.comp == comp &&
                           pt.params.dataset == ds;
                });
            };
            const SweepResult *mp = compRun(CompModel::Mp);
            const SweepResult *sp = compRun(CompModel::Spmm);
            if (!mp || !mp->ok || !sp || !sp->ok)
                continue;
            // Warmed kernel time: the final per-run sample.
            const double mp_ms =
                mp->outcome.kernelSamplesUs.back() / 1e3;
            const double sp_ms =
                sp->outcome.kernelSamplesUs.back() / 1e3;
            table.row({dsShort(id), width.label,
                       fmtDouble(mp_ms, 2), fmtDouble(sp_ms, 2),
                       fmtDouble(mp_ms / sp_ms, 2)});
            csv.row({dsShort(id), width.label,
                     fmtDouble(mp_ms, 4), fmtDouble(sp_ms, 4),
                     fmtDouble(mp_ms / sp_ms, 4)});
        }
    }
    table.print();
    return 0;
}
