/**
 * @file
 * GNN training — the paper's future-work extension in action: train
 * a 2-layer GCN with full-batch SGD on synthetic structure-derived
 * labels, entirely through the core-kernel substrate, then
 * characterize one training epoch on the timing simulator.
 *
 * Usage: training_gcn [--dataset cora] [--epochs 30] [--lr 2.0]
 *                     [--classes 4] [--sim]
 */

#include <cstdio>

#include "engine/ExecutionEngine.hpp"
#include "graph/Datasets.hpp"
#include "training/GcnTrainer.hpp"
#include "util/Csv.hpp"
#include "suite/UserParams.hpp"
#include "util/Table.hpp"

using namespace gsuite;

int
main(int argc, char **argv)
{
    OptionSet opts;
    opts.parseArgs(argc, argv);
    const UserParams params =
        UserParams::fromOptions(opts, {"dataset", "model", "hidden"}, {});
    const bool on_sim = opts.getBool("sim", false);

    TrainConfig cfg;
    cfg.model = params.model;
    cfg.hidden = params.hidden;
    cfg.epochs = static_cast<int>(opts.getInt("epochs", 30));
    cfg.lr = static_cast<float>(opts.getDouble("lr", 2.0));
    cfg.classes = static_cast<int>(opts.getInt("classes", 4));
    opts.rejectUnread();

    const Graph g = loadDataset(
        params.dataset,
        defaultSimScale(datasetInfoByName(params.dataset).id), 7);
    std::printf("loaded %s\n", g.summary().c_str());

    GnnTrainer trainer(g, cfg);
    std::printf("per-epoch pipeline: %zu kernels "
                "(forward + loss + backward + SGD)\n",
                trainer.numKernels());

    FunctionalEngine engine;
    const auto history = trainer.train(engine);
    TablePrinter curve("training curve");
    curve.header({"epoch", "loss", "accuracy", "kernel ms"});
    for (size_t e = 0; e < history.size();
         e += std::max<size_t>(1, history.size() / 10)) {
        curve.row({std::to_string(e), fmtDouble(history[e].loss, 4),
                   fmtDouble(history[e].accuracy, 3),
                   fmtDouble(history[e].kernelUs / 1e3, 2)});
    }
    curve.row({"final", fmtDouble(history.back().loss, 4),
               fmtDouble(history.back().accuracy, 3),
               fmtDouble(history.back().kernelUs / 1e3, 2)});
    curve.print();

    if (on_sim) {
        std::printf("\ncharacterizing one epoch on the simulator "
                    "...\n");
        SimEngine::Options sopts;
        sopts.sim.maxCtas = 512;
        SimEngine sim(sopts);
        trainer.runEpoch(sim);
        TablePrinter table("training-epoch kernels on the simulator");
        table.header({"kernel", "cycles", "MemDep%", "compute%"});
        for (const auto &rec : sim.timeline()) {
            table.row(
                {rec.name, std::to_string(rec.sim.cycles),
                 fmtDouble(100 * rec.sim.stallShare(
                               StallReason::MemoryDependency), 1),
                 fmtDouble(100 * rec.sim.computeUtilization(), 1)});
        }
        table.print();
    }
    return 0;
}
