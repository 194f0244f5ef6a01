/**
 * @file
 * Quickstart: build and run a GCN inference pipeline on Cora with
 * both computational models, verify they agree, and print the
 * per-kernel timeline — the smallest complete tour of the gSuite API.
 *
 * Usage: quickstart [--dataset cora] [--layers 2] [--seed 7]
 */

#include <cstdio>

#include "engine/ExecutionEngine.hpp"
#include "graph/Datasets.hpp"
#include "models/GnnModel.hpp"
#include "models/Reference.hpp"
#include "suite/UserParams.hpp"
#include "util/Csv.hpp"
#include "util/Table.hpp"

using namespace gsuite;

int
main(int argc, char **argv)
{
    OptionSet opts;
    opts.parseArgs(argc, argv);
    const UserParams params =
        UserParams::fromOptions(opts, {"dataset", "layers", "seed"}, {});
    opts.rejectUnread();

    // 1. Load a dataset (synthetic, matched to Table IV statistics).
    const Graph graph =
        loadDataset(params.dataset, DatasetScale::full(), params.seed);
    std::printf("loaded %s\n", graph.summary().c_str());

    // 2. Configure a 2-layer GCN.
    ModelConfig cfg;
    cfg.model = GnnModelKind::Gcn;
    cfg.layers = params.layers;
    cfg.seed = params.seed;

    // 3. Run it under the message-passing computational model.
    FunctionalEngine engine;
    cfg.comp = CompModel::Mp;
    GnnPipeline mp(graph, cfg);
    mp.run(engine);

    TablePrinter table("per-kernel timeline (gSuite-MP GCN)");
    table.header({"kernel", "class", "time (us)"});
    for (const auto &rec : engine.timeline()) {
        table.row({rec.name, kernelClassName(rec.kind),
                   fmtDouble(rec.wallUs, 1)});
    }
    table.print();
    std::printf("MP end-to-end kernel time: %.2f ms\n",
                engine.totalWallUs() / 1e3);

    // 4. Same model, SpMM computational model.
    FunctionalEngine engine2;
    cfg.comp = CompModel::Spmm;
    GnnPipeline spmm(graph, cfg);
    spmm.run(engine2);
    std::printf("SpMM end-to-end kernel time: %.2f ms\n",
                engine2.totalWallUs() / 1e3);

    // 5. The two computational models must agree with each other and
    // with the naive reference implementation.
    const double mp_vs_spmm =
        DenseMatrix::maxAbsDiff(mp.output(), spmm.output());
    const DenseMatrix ref =
        referenceForward(graph, cfg, mp.weights());
    const double mp_vs_ref = DenseMatrix::maxAbsDiff(mp.output(), ref);
    std::printf("max |MP - SpMM|      = %.3g\n", mp_vs_spmm);
    std::printf("max |MP - reference| = %.3g\n", mp_vs_ref);
    if (mp_vs_spmm > 1e-3 || mp_vs_ref > 1e-3) {
        std::printf("FAIL: computational models disagree\n");
        return 1;
    }
    std::printf("OK: MP == SpMM == reference\n");
    return 0;
}
