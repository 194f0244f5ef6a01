/**
 * @file
 * Fig. 4: execution-time distribution (%) of the kernels for each
 * framework, model and dataset.
 *
 * Expected shape: the GNN model — not the framework — determines the
 * distribution; sgemm's share grows with feature width.
 */

#include <cstdio>

#include "bench/BenchCommon.hpp"

using namespace gsuite;
using namespace gsuite::bench;

namespace {

/** The four framework columns; gSuite-SpMM cannot run SAGE. */
std::vector<SweepVariant>
frameworkColumns()
{
    return {
        {"PyG", [](UserParams &p) { p.framework = Framework::Pyg;
                                    p.comp = CompModel::Mp; }},
        {"DGL", [](UserParams &p) { p.framework = Framework::Dgl;
                                    p.comp = CompModel::Spmm; }},
        {"gSuite-MP",
         [](UserParams &p) { p.framework = Framework::Gsuite;
                             p.comp = CompModel::Mp; }},
        {"gSuite-SpMM",
         [](UserParams &p) { p.framework = Framework::Gsuite;
                             p.comp = CompModel::Spmm; }},
    };
}

/** Fig. 4 legend order: sgemm scatter indexSelect SpMM other. */
double
classShare(const std::map<KernelClass, double> &by_class,
           KernelClass cls, double total)
{
    auto it = by_class.find(cls);
    return total > 0 && it != by_class.end() ? it->second / total
                                             : 0.0;
}

/** The five Fig. 4 legend shares for one result. */
std::vector<std::string>
shareCells(const SweepResult &r)
{
    double total = 0;
    for (const auto &[cls, us] : r.wallByClass)
        total += us;
    // Fold SpGEMM into the SpMM column and elementwise into other
    // (Fig. 4 legend).
    const double sg =
        classShare(r.wallByClass, KernelClass::Sgemm, total);
    const double sc =
        classShare(r.wallByClass, KernelClass::Scatter, total);
    const double is =
        classShare(r.wallByClass, KernelClass::IndexSelect, total);
    const double sp =
        classShare(r.wallByClass, KernelClass::SpMM, total) +
        classShare(r.wallByClass, KernelClass::SpGemm, total);
    const double other =
        classShare(r.wallByClass, KernelClass::Elementwise, total) +
        classShare(r.wallByClass, KernelClass::Aux, total);
    return {pct(sg), pct(sc), pct(is), pct(sp), pct(other)};
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchArgs args(argc, argv);
    banner("Fig. 4: execution time distribution of the kernels (%)",
           "Shares of per-kernel wall-clock time; SpGEMM counts "
           "toward the SpMM column, elementwise/aux toward other.");

    const SweepSpec spec =
        SweepSpec{}
            .base(args.functionalBase())
            .runs(1)
            .variants(frameworkColumns())
            .models(paperModels())
            .datasets(paperDatasets())
            .skip(sageSpmmUnsupported);

    const ResultStore store =
        BenchSession(args.sessionOptions()).run(spec);

    store.toCsv(args.params.csvOut,
                {"framework", "model", "dataset", "sgemm", "scatter",
                 "indexSelect", "SpMM", "other"},
                [](const SweepResult &r)
                    -> std::vector<std::vector<std::string>> {
                    if (!r.ok)
                        return {};
                    std::vector<std::string> row = {
                        r.point.variant,
                        gnnModelName(r.point.params.model),
                        dsShortByName(r.point.params.dataset)};
                    for (auto &cell : shareCells(r))
                        row.push_back(std::move(cell));
                    return {row};
                });

    for (const SweepVariant &fw : frameworkColumns()) {
        TablePrinter table(std::string("framework: ") + fw.label);
        table.header({"model", "dataset", "sgemm%", "scatter%",
                      "indexSelect%", "SpMM%", "other%"});
        for (const auto &r : store) {
            if (!r.ok || r.point.variant != fw.label)
                continue;
            std::vector<std::string> row = {
                gnnModelName(r.point.params.model),
                dsShortByName(r.point.params.dataset)};
            for (auto &cell : shareCells(r))
                row.push_back(std::move(cell));
            table.row(row);
        }
        table.print();
        std::printf("\n");
    }
    return 0;
}
