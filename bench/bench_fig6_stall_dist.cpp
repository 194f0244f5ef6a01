/**
 * @file
 * Fig. 6: issue-stall distribution of the core kernels, comparing MP
 * and SpMM kernels across GNN models and datasets.
 *
 * Expected shape: MemoryDependency dominant (paper average: 46.3%),
 * growing with dataset size for everything except sgemm; noticeable
 * InstructionFetch for GCN-MP is/sc on the small datasets;
 * Synchronization pressure on scatter (atomics) and sgemm (barriers).
 */

#include <cstdio>
#include <initializer_list>

#include "bench/BenchCommon.hpp"

using namespace gsuite;
using namespace gsuite::bench;

namespace {

std::initializer_list<KernelClass>
classOrder(CompModel comp)
{
    static const std::initializer_list<KernelClass> mp = {
        KernelClass::Sgemm, KernelClass::Scatter,
        KernelClass::IndexSelect};
    static const std::initializer_list<KernelClass> spmm = {
        KernelClass::SpGemm, KernelClass::SpMM, KernelClass::Sgemm};
    return comp == CompModel::Mp ? mp : spmm;
}

std::vector<std::string>
headerCells()
{
    std::vector<std::string> cells = {"model", "dataset", "kernel"};
    for (int r = 0; r < kNumStallReasons; ++r)
        cells.push_back(std::string(stallReasonName(
                            static_cast<StallReason>(r))) +
                        "%");
    return cells;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchArgs args(argc, argv);
    banner("Fig. 6: issue stall distribution of the kernels (%)",
           "Timing simulator, sim dataset scales (printed by "
           "bench_table4_datasets).");

    // MP panel covers all three models; the SpMM panel has no SAGE
    // implementation (paper Section II-C).
    const SweepSpec spec =
        SweepSpec{}
            .base(args.simBase())
            .comps({CompModel::Mp, CompModel::Spmm})
            .models(paperModels())
            .datasets(paperDatasets())
            .skip(sageSpmmUnsupported);

    const ResultStore store =
        BenchSession(args.sessionOptions()).run(spec);

    CsvWriter csv(args.params.csvOut);
    {
        std::vector<std::string> h = {"comp"};
        for (const auto &c : headerCells())
            h.push_back(c);
        csv.header(h);
    }

    double memdep_sum = 0.0;
    int memdep_count = 0;
    // Emission is grouped (model, dataset) per comp panel, matching
    // the figure's layout; the sweep itself ran comp-major.
    auto emitPanel = [&](CompModel comp, TablePrinter &table) {
        for (const GnnModelKind model : paperModels()) {
            for (const DatasetId id : paperDatasets()) {
                const std::string ds = datasetInfo(id).name;
                const SweepResult *r =
                    store.find([&](const SweepPoint &pt) {
                        return pt.params.comp == comp &&
                               pt.params.model == model &&
                               pt.params.dataset == ds;
                    });
                if (!r || !r->ok)
                    continue;
                for (const KernelClass cls : classOrder(comp)) {
                    auto it = r->simByClass.find(cls);
                    if (it == r->simByClass.end())
                        continue;
                    const KernelStats &s = it->second;
                    std::vector<std::string> cells = {
                        gnnModelName(model), dsShort(id),
                        kernelClassShortForm(cls)};
                    for (int sr = 0; sr < kNumStallReasons; ++sr)
                        cells.push_back(pct(s.stallShare(
                            static_cast<StallReason>(sr))));
                    table.row(cells);
                    std::vector<std::string> csv_cells = {
                        comp == CompModel::Mp ? "mp" : "spmm"};
                    for (const auto &c : cells)
                        csv_cells.push_back(c);
                    csv.row(csv_cells);
                    memdep_sum += s.stallShare(
                        StallReason::MemoryDependency);
                    ++memdep_count;
                }
            }
        }
    };

    TablePrinter mp_table("gSuite-MP");
    mp_table.header(headerCells());
    emitPanel(CompModel::Mp, mp_table);
    mp_table.print();
    std::printf("\n");

    TablePrinter sp_table("gSuite-SpMM");
    sp_table.header(headerCells());
    emitPanel(CompModel::Spmm, sp_table);
    sp_table.print();

    if (memdep_count > 0)
        std::printf("\naverage MemoryDependency share: %s%% "
                    "(paper reports 46.3%%)\n",
                    pct(memdep_sum / memdep_count).c_str());
    return store.allOk() ? 0 : 1;
}
