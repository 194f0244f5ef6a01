/**
 * @file
 * Table IV: the included datasets with their statistics, verified
 * against the actually-generated graphs (at full scale for the
 * citation graphs; scaled graphs print their scale).
 */

#include <cstdio>

#include "bench/BenchCommon.hpp"
#include "util/StringUtils.hpp"

using namespace gsuite;
using namespace gsuite::bench;

int
main(int argc, char **argv)
{
    const BenchArgs args(argc, argv);
    banner("Table IV: datasets included in the evaluation",
           "Synthetic generators matched to the paper's statistics "
           "(DESIGN.md #4).");

    const SweepSpec spec = SweepSpec{}
                               .base(args.functionalBase())
                               .datasets(paperDatasets());

    // Custom point runner: just generate the graph and record its
    // realized statistics — no model runs.
    const ResultStore store =
        BenchSession(args.sessionOptions())
            .run(spec, [](const SweepPoint &pt) {
                RunOutcome out;
                out.params = pt.params;
                out.scaleDescription =
                    pt.params.resolveScale().describe();
                const Graph g = loadDatasetFor(pt.params);
                out.graphSummary = g.summary();
                out.metrics["gen_nodes"] =
                    static_cast<double>(g.numNodes());
                out.metrics["gen_edges"] =
                    static_cast<double>(g.numEdges());
                out.metrics["gen_flen"] =
                    static_cast<double>(g.featureLen());
                return out;
            });

    TablePrinter table;
    table.header({"Dataset", "Nodes", "Feature Length", "Edges",
                  "Short Form", "Generated (functional scale)"});
    CsvWriter csv(args.params.csvOut);
    csv.header({"dataset", "nodes", "feature_len", "edges",
                "short_form", "gen_nodes", "gen_edges", "gen_flen",
                "scale"});

    for (const auto &r : store) {
        if (!r.ok)
            continue;
        const DatasetInfo &info =
            datasetInfoByName(r.point.params.dataset);
        const auto metric = [&](const char *name) {
            return static_cast<uint64_t>(
                r.outcome.metrics.at(name));
        };
        char gen[128];
        std::snprintf(gen, sizeof(gen), "%s nodes, %s edges (%s)",
                      formatCount(metric("gen_nodes")).c_str(),
                      formatCount(metric("gen_edges")).c_str(),
                      r.outcome.scaleDescription.c_str());
        table.row({info.name,
                   formatCount(static_cast<uint64_t>(info.nodes)),
                   std::to_string(info.featureLen),
                   formatCount(static_cast<uint64_t>(info.edges)),
                   info.shortForm, gen});
        csv.row({info.name, std::to_string(info.nodes),
                 std::to_string(info.featureLen),
                 std::to_string(info.edges), info.shortForm,
                 std::to_string(metric("gen_nodes")),
                 std::to_string(metric("gen_edges")),
                 std::to_string(metric("gen_flen")),
                 r.outcome.scaleDescription});
    }
    table.print();
    return 0;
}
