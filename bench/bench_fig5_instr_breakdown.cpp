/**
 * @file
 * Fig. 5: instruction breakdown of the core kernels during
 * execution, for gSuite-MP and gSuite-SpMM on the paper's two
 * endpoints (GCN-CR and GIN-LJ).
 *
 * Expected shape: indexSelect/scatter dominated by INT + Load/Store
 * (address math), sgemm dominated by FP32; the mix barely moves when
 * the model or dataset changes.
 */

#include <cstdio>
#include <initializer_list>

#include "bench/BenchCommon.hpp"

using namespace gsuite;
using namespace gsuite::bench;

namespace {

void
emitRows(TablePrinter &table, CsvWriter &csv, const char *config,
         const SweepResult &run,
         std::initializer_list<KernelClass> order)
{
    for (const KernelClass cls : order) {
        auto it = run.simByClass.find(cls);
        if (it == run.simByClass.end())
            continue;
        const KernelStats &s = it->second;
        const std::vector<std::string> cells = {
            config, kernelClassShortForm(cls),
            pct(s.instrShare(InstrClass::Fp32)),
            pct(s.instrShare(InstrClass::Int)),
            pct(s.instrShare(InstrClass::LoadStore)),
            pct(s.instrShare(InstrClass::Control)),
            pct(s.instrShare(InstrClass::Other))};
        table.row(cells);
        csv.row(cells);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchArgs args(argc, argv);
    banner("Fig. 5: instruction breakdown of the kernels (%)",
           "Timing simulator, sim dataset scales; FP32 / INT / "
           "Load-Store / Control / other per core kernel.");

    // The paper's two endpoints only: GCN on Cora, GIN on LJ.
    const SweepSpec spec =
        SweepSpec{}
            .base(args.simBase())
            .comps({CompModel::Mp, CompModel::Spmm})
            .models({GnnModelKind::Gcn, GnnModelKind::Gin})
            .datasets({DatasetId::Cora, DatasetId::LiveJournal})
            .skip([](const UserParams &p) {
                const bool gcn_cr = p.model == GnnModelKind::Gcn &&
                                    p.dataset == "cora";
                const bool gin_lj = p.model == GnnModelKind::Gin &&
                                    p.dataset == "livejournal";
                return !gcn_cr && !gin_lj;
            });

    const ResultStore store =
        BenchSession(args.sessionOptions()).run(spec);

    CsvWriter csv(args.params.csvOut);
    csv.header({"config", "kernel", "FP32", "INT", "LoadStore",
                "Control", "other"});

    auto point = [&](CompModel comp, GnnModelKind model) {
        return store.find([&](const SweepPoint &pt) {
            return pt.params.comp == comp &&
                   pt.params.model == model;
        });
    };

    {
        TablePrinter table("gSuite-MP");
        table.header({"config", "kernel", "FP32%", "INT%", "Ld/St%",
                      "Ctrl%", "other%"});
        if (const SweepResult *r =
                point(CompModel::Mp, GnnModelKind::Gcn))
            emitRows(table, csv, "GCN-CR", *r,
                     {KernelClass::Sgemm, KernelClass::Scatter,
                      KernelClass::IndexSelect});
        if (const SweepResult *r =
                point(CompModel::Mp, GnnModelKind::Gin))
            emitRows(table, csv, "GIN-LJ", *r,
                     {KernelClass::Sgemm, KernelClass::Scatter,
                      KernelClass::IndexSelect});
        table.print();
        std::printf("\n");
    }
    {
        TablePrinter table("gSuite-SpMM");
        table.header({"config", "kernel", "FP32%", "INT%", "Ld/St%",
                      "Ctrl%", "other%"});
        if (const SweepResult *r =
                point(CompModel::Spmm, GnnModelKind::Gcn))
            emitRows(table, csv, "GCN-CR", *r,
                     {KernelClass::SpGemm, KernelClass::SpMM,
                      KernelClass::Sgemm});
        if (const SweepResult *r =
                point(CompModel::Spmm, GnnModelKind::Gin))
            emitRows(table, csv, "GIN-LJ", *r,
                     {KernelClass::SpMM, KernelClass::Sgemm});
        table.print();
    }
    return 0;
}
