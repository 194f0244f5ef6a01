/**
 * @file
 * Simulator characterization walkthrough: run a GNN pipeline on the
 * timing-detailed GPU model and print the per-kernel architecture
 * statistics the paper reads from GPGPU-Sim — issue-stall breakdown,
 * warp occupancy, cache hit rates, instruction mix and utilization.
 *
 * Usage: sim_characterization [--dataset cora] [--model gcn]
 *                             [--comp mp] [--layers 2]
 */

#include <cstdio>

#include "engine/ExecutionEngine.hpp"
#include "graph/Datasets.hpp"
#include "models/GnnModel.hpp"
#include "util/Csv.hpp"
#include "suite/UserParams.hpp"
#include "util/Table.hpp"

using namespace gsuite;

int
main(int argc, char **argv)
{
    OptionSet opts;
    opts.parseArgs(argc, argv);
    const UserParams params = UserParams::fromOptions(
        opts, {"dataset", "model", "comp", "layers"}, {});
    opts.rejectUnread();

    ModelConfig cfg;
    cfg.model = params.model;
    cfg.comp = params.comp;
    cfg.layers = params.layers;

    const Graph graph = loadDataset(
        params.dataset,
        defaultSimScale(datasetInfoByName(params.dataset).id), 7);
    std::printf("loaded %s\n", graph.summary().c_str());

    SimEngine::Options eopts;
    eopts.profileCaches = true;
    SimEngine engine(eopts);

    GnnPipeline pipeline(graph, cfg);
    pipeline.run(engine);

    TablePrinter table("per-kernel simulator statistics");
    table.header({"kernel", "cycles", "MemDep%", "ExecDep%", "Fetch%",
                  "Sync%", "L1hit%", "L2hit%", "cmp%", "mem%"});
    for (const auto &rec : engine.timeline()) {
        const KernelStats &s = rec.sim;
        table.row(
            {rec.name, std::to_string(s.cycles),
             fmtDouble(100 * s.stallShare(
                           StallReason::MemoryDependency), 1),
             fmtDouble(100 * s.stallShare(
                           StallReason::ExecutionDependency), 1),
             fmtDouble(100 * s.stallShare(
                           StallReason::InstructionFetch), 1),
             fmtDouble(100 * s.stallShare(
                           StallReason::Synchronization), 1),
             fmtDouble(100 * s.l1HitRate(), 1),
             fmtDouble(100 * s.l2HitRate(), 1),
             fmtDouble(100 * s.computeUtilization(), 1),
             fmtDouble(100 * s.memoryUtilization(), 1)});
    }
    table.print();

    TablePrinter occ("warp occupancy distribution");
    occ.header({"kernel", "Stall%", "Idle%", "W8%", "W20%", "W32%"});
    for (const auto &rec : engine.timeline()) {
        const KernelStats &s = rec.sim;
        occ.row({rec.name,
                 fmtDouble(100 * s.occShare(OccBucket::Stall), 1),
                 fmtDouble(100 * s.occShare(OccBucket::Idle), 1),
                 fmtDouble(100 * s.occShare(OccBucket::W8), 1),
                 fmtDouble(100 * s.occShare(OccBucket::W20), 1),
                 fmtDouble(100 * s.occShare(OccBucket::W32), 1)});
    }
    occ.print();

    TablePrinter instr("instruction breakdown");
    instr.header(
        {"kernel", "FP32%", "INT%", "Ld/St%", "Ctrl%", "other%"});
    for (const auto &rec : engine.timeline()) {
        const KernelStats &s = rec.sim;
        instr.row({rec.name,
                   fmtDouble(100 * s.instrShare(InstrClass::Fp32), 1),
                   fmtDouble(100 * s.instrShare(InstrClass::Int), 1),
                   fmtDouble(100 * s.instrShare(
                                 InstrClass::LoadStore), 1),
                   fmtDouble(100 * s.instrShare(
                                 InstrClass::Control), 1),
                   fmtDouble(100 * s.instrShare(
                                 InstrClass::Other), 1)});
    }
    instr.print();

    TablePrinter hw("hardware-profiler vs simulator cache hit rates");
    hw.header({"kernel", "L1 hw%", "L1 sim%", "L2 hw%", "L2 sim%"});
    for (const auto &rec : engine.timeline()) {
        hw.row({rec.name, fmtDouble(100 * rec.hw.l1HitRate(), 1),
                fmtDouble(100 * rec.sim.l1HitRate(), 1),
                fmtDouble(100 * rec.hw.l2HitRate(), 1),
                fmtDouble(100 * rec.sim.l2HitRate(), 1)});
    }
    hw.print();
    return 0;
}
