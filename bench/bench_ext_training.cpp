/**
 * @file
 * Extension bench (paper future work): GNN-training characterization
 * — per-kernel time split of a training epoch (forward vs loss vs
 * backward vs update) across datasets, plus the simulator's view of
 * where training epochs stall.
 */

#include <cstdio>
#include <map>

#include "bench/BenchCommon.hpp"
#include "training/GcnTrainer.hpp"
#include "util/StringUtils.hpp"

using namespace gsuite;
using namespace gsuite::bench;

namespace {

/** Phase of a training-epoch kernel, derived from its name. */
const char *
phaseOf(const std::string &name)
{
    if (startsWith(name, "softmax"))
        return "loss";
    if (startsWith(name, "sgd"))
        return "update";
    if (name.find("_fwd_") != std::string::npos)
        return "forward";
    return "backward";
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchArgs args(argc, argv);
    banner("Extension: GNN-training epoch characterization (GCN)",
           "Forward / loss / backward / update split per epoch; "
           "sim dataset scales.");

    const int epochs = args.quick ? 3 : 10;
    const SweepSpec spec =
        SweepSpec{}
            .base(args.simBase())
            .engine(EngineKind::Sim) // sim dataset scales...
            .datasets(paperDatasets());

    // Custom point runner: a full training loop on the functional
    // engine, with phase shares and the final epoch's loss/accuracy
    // attached as metrics.
    const ResultStore store =
        BenchSession(args.sessionOptions())
            .run(spec, [epochs](const SweepPoint &pt) {
                RunOutcome out;
                out.params = pt.params;
                out.scaleDescription =
                    pt.params.resolveScale().describe();
                const Graph g = loadDatasetFor(pt.params);
                out.graphSummary = g.summary();

                TrainConfig cfg;
                cfg.epochs = epochs;
                GcnTrainer trainer(g, cfg);
                FunctionalEngine engine;
                const auto history = trainer.train(engine);
                out.timeline = engine.timeline();

                std::map<std::string, double> by_phase;
                double total = 0;
                for (const auto &rec : out.timeline) {
                    by_phase[phaseOf(rec.name)] += rec.wallUs;
                    total += rec.wallUs;
                }
                for (const char *phase :
                     {"forward", "loss", "backward", "update"})
                    out.metrics[phase] = by_phase[phase] / total;
                out.metrics["epoch_ms"] =
                    history.back().kernelUs / 1e3;
                out.metrics["final_loss"] = history.back().loss;
                out.metrics["final_acc"] =
                    history.back().accuracy;
                return out;
            });

    auto rows = [](const SweepResult &r)
        -> std::vector<std::vector<std::string>> {
        if (!r.ok)
            return {};
        const auto &m = r.outcome.metrics;
        return {{dsShortByName(r.point.params.dataset),
                 pct(m.at("forward")), pct(m.at("loss")),
                 pct(m.at("backward")), pct(m.at("update")),
                 fmtDouble(m.at("epoch_ms"), 2),
                 fmtDouble(m.at("final_loss"), 4),
                 fmtDouble(m.at("final_acc"), 3)}};
    };

    CsvWriter csv(args.params.csvOut);
    csv.header({"dataset", "forward_pct", "loss_pct", "backward_pct",
                "update_pct", "epoch_ms", "final_loss",
                "final_acc"});
    TablePrinter table;
    table.header({"dataset", "fwd%", "loss%", "bwd%", "upd%",
                  "epoch ms", "loss@10", "acc@10"});
    for (const auto &r : store) {
        for (const auto &row : rows(r)) {
            table.row(row);
            csv.row(row);
        }
    }
    table.print();

    // Simulator view of one epoch on Cora: the backward SpMM runs on
    // the transposed adjacency, a different irregular access pattern.
    std::printf("\nsimulated epoch on CR (cycles per kernel):\n");
    const Graph g =
        loadDataset(DatasetId::Cora, DatasetScale::full(), 7);
    TrainConfig cfg;
    GcnTrainer trainer(g, cfg);
    SimEngine::Options sopts;
    sopts.sim.maxCtas = args.maxCtas();
    SimEngine sim(sopts);
    trainer.runEpoch(sim);
    TablePrinter simtab;
    simtab.header({"kernel", "phase", "cycles", "MemDep%"});
    for (const auto &rec : sim.timeline()) {
        simtab.row({rec.name, phaseOf(rec.name),
                    std::to_string(rec.sim.cycles),
                    pct(rec.sim.stallShare(
                        StallReason::MemoryDependency))});
    }
    simtab.print();
    return 0;
}
