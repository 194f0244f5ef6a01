/**
 * @file
 * Real-dataset bench: load a SNAP-format edge list from disk (the
 * "add a specific dataset" extendability axis of Table III) and run
 * one simulated GNN point on it through the sweep API.
 *
 * Usage:
 *   bench_edgelist --edgelist PATH [--flen N] [--model gcn]
 *                  [--comp mp] [--layers N] [--sim-threads N]
 *                  [--csv FILE] [--quick]
 *
 * Without --edgelist a small demo graph is generated, exported via
 * graph/EdgeListIo and re-loaded, exercising the save/load loop the
 * unit tests cover at a realistic size.
 */

#include <cstdio>

#include "bench/BenchCommon.hpp"
#include "graph/EdgeListIo.hpp"
#include "graph/Generators.hpp"
#include "util/Random.hpp"

using namespace gsuite;
using namespace gsuite::bench;

int
main(int argc, char **argv)
{
    OptionSet cli;
    cli.parseArgs(argc, argv);
    const bool quick = cli.getBool("quick", false);
    UserParams base = UserParams::fromOptions(
        cli, {"model", "comp", "layers", "sim-threads", "csv"}, {});
    std::string path = cli.getString("edgelist", "");
    const int64_t flen = cli.getInt("flen", 16);
    cli.rejectUnread();

    banner("Edge-list dataset bench",
           "SNAP-format 'u v' edge list through the sweep API "
           "(features are seeded-synthetic at --flen width).");

    if (path.empty()) {
        // Demo mode: export a scaled Reddit-like graph and reload it
        // from disk, so the bench always exercises the file path.
        path = "/tmp/gsuite_demo_edgelist.txt";
        Rng rng(7);
        RmatParams rp;
        rp.nodes = quick ? 2000 : 20000;
        rp.edges = rp.nodes * 8;
        Graph demo = generateRmat(rp, rng);
        fillFeatures(demo, flen, rng);
        saveEdgeList(demo, path);
        std::printf("no --edgelist given; wrote demo graph to %s\n",
                    path.c_str());
    }

    base.engine = EngineKind::Sim;
    base.runs = 1;
    base.maxCtas = quick ? 256 : 2048;
    base.featureCap = flen; // file datasets take flen from the cap

    const SweepSpec spec =
        SweepSpec{}.base(base).datasetNames({"file:" + path});

    const ResultStore store = BenchSession().run(spec);
    const SweepResult &r = store.at(0);
    if (!r.ok) {
        std::printf("FAILED: %s\n", r.error.c_str());
        return 1;
    }

    std::printf("loaded %s\n\n", r.outcome.graphSummary.c_str());
    TablePrinter table("per-kernel simulator statistics");
    table.header({"kernel", "class", "cycles", "MemDep%", "L1 hit%",
                  "divergence"});
    for (const auto &rec : r.outcome.timeline) {
        if (!rec.hasSim)
            continue;
        table.row({rec.name, kernelClassName(rec.kind),
                   std::to_string(rec.sim.cycles),
                   pct(rec.sim.stallShare(
                       StallReason::MemoryDependency)),
                   pct(rec.sim.l1HitRate()),
                   fmtDouble(rec.sim.divergence(), 2)});
    }
    table.print();

    store.toCsv(base.csvOut);
    return 0;
}
