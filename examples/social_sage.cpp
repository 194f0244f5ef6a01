/**
 * @file
 * Social-network embedding with GraphSAGE — the inductive workload
 * the paper's introduction motivates (Reddit-style community graph,
 * heavy-tailed degrees, mean aggregation over neighbourhoods).
 *
 * Demonstrates: loading a Reddit-scale graph, inspecting the degree
 * distribution that drives the memory irregularity, running SAGE in
 * the MP computational model, and exporting the graph for reuse via
 * the edge-list utilities.
 *
 * Usage: social_sage [--edge-div 16] [--layers 2] [--export FILE]
 */

#include <algorithm>
#include <cstdio>

#include "engine/ExecutionEngine.hpp"
#include "graph/Datasets.hpp"
#include "graph/EdgeListIo.hpp"
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

    DatasetScale scale = defaultFunctionalScale(DatasetId::Reddit);
    UserParams defaults;
    defaults.edgeDivisor = scale.edgeDivisor;
    const UserParams params =
        UserParams::fromOptions(opts, {"edge-div", "layers"}, defaults);
    scale.edgeDivisor = params.edgeDivisor;
    const std::string export_path = opts.getString("export", "");
    opts.rejectUnread();
    const Graph graph = loadDataset(DatasetId::Reddit, scale, 7);
    std::printf("loaded %s (scale %s)\n", graph.summary().c_str(),
                scale.describe().c_str());

    // The degree skew is what makes this workload interesting: a few
    // hub communities absorb most messages.
    auto degrees = graph.inDegrees();
    std::sort(degrees.begin(), degrees.end(), std::greater<>());
    const int64_t edges = graph.numEdges();
    int64_t running = 0;
    int64_t hubs = 0;
    while (hubs < static_cast<int64_t>(degrees.size()) &&
           running * 2 < edges) {
        running += degrees[static_cast<size_t>(hubs)];
        ++hubs;
    }
    std::printf("max in-degree %ld; %ld nodes (%.2f%%) receive half "
                "of all messages\n",
                (long)degrees.front(), (long)hubs,
                100.0 * static_cast<double>(hubs) /
                    static_cast<double>(graph.numNodes()));

    ModelConfig cfg;
    cfg.model = GnnModelKind::Sage;
    cfg.comp = CompModel::Mp;
    cfg.layers = params.layers;
    cfg.hidden = 32;
    cfg.outDim = 16;

    FunctionalEngine engine;
    GnnPipeline pipeline(graph, cfg);
    pipeline.run(engine);

    TablePrinter table("GraphSAGE (MP) per-kernel time");
    table.header({"kernel", "class", "time (ms)"});
    for (const auto &rec : engine.timeline())
        table.row({rec.name, kernelClassName(rec.kind),
                   fmtDouble(rec.wallUs / 1e3, 2)});
    table.print();
    std::printf("total kernel time: %.1f ms; output embeddings "
                "[%ld x %ld]\n",
                engine.totalWallUs() / 1e3,
                (long)pipeline.output().rows(),
                (long)pipeline.output().cols());

    if (!export_path.empty()) {
        saveEdgeList(graph, export_path);
        std::printf("exported edge list to %s\n", export_path.c_str());
    }
    return 0;
}
