#include "frameworks/FrameworkAdapter.hpp"

#include "util/Logging.hpp"
#include "util/StringUtils.hpp"

namespace gsuite {

Framework
frameworkFromName(const std::string &name)
{
    const std::string n = toLower(trim(name));
    if (n == "gsuite" || n == "none" || n.empty())
        return Framework::Gsuite;
    if (n == "pyg" || n == "pytorch-geometric")
        return Framework::Pyg;
    if (n == "dgl")
        return Framework::Dgl;
    fatal("unknown framework '%s' (known: gsuite, pyg, dgl)",
          name.c_str());
}

const char *
frameworkName(Framework fw)
{
    switch (fw) {
      case Framework::Gsuite: return "gsuite";
      case Framework::Pyg: return "pyg";
      case Framework::Dgl: return "dgl";
    }
    panic("unknown Framework");
}

FrameworkAdapter::FrameworkAdapter(Framework fw)
    : fw(fw), ov(FrameworkOverheads::of(fw))
{
}

CompModel
FrameworkAdapter::resolveCompModel(GnnModelKind kind,
                                   CompModel requested) const
{
    (void)kind;
    switch (fw) {
      case Framework::Pyg:
        return CompModel::Mp;
      case Framework::Dgl:
        return CompModel::Spmm;
      case Framework::Gsuite:
        return requested;
    }
    panic("unknown Framework");
}

PreparedModel
FrameworkAdapter::prepare(const Graph &graph, ModelConfig cfg,
                          int batch) const
{
    if (batch < 1)
        fatal("batch size must be >= 1 (got %d)", batch);
    cfg.comp = resolveCompModel(cfg.model, cfg.comp);
    // DGL's SAGEConv lowers mean aggregation to SpMM; permit it on
    // the DGL path only (gSuite matches the paper and rejects it).
    if (fw == Framework::Dgl)
        cfg.allowSpmmSage = true;

    PreparedModel prepared;
    prepared.replicas.reserve(static_cast<size_t>(batch));
    for (int b = 0; b < batch; ++b)
        prepared.replicas.push_back(
            std::make_unique<GnnPipeline>(graph, cfg));
    if (batch > 1) {
        // Batched inference: N independent pipeline instances (the
        // shared input graph is read-only, so the merged graph's
        // parts stay write-disjoint) composed into one op-graph
        // whose roots all issue concurrently.
        std::vector<const OpGraph *> graphs;
        graphs.reserve(static_cast<size_t>(batch));
        for (const auto &replica : prepared.replicas)
            graphs.push_back(&replica->opGraph());
        prepared.merged = OpGraph::merge(graphs);
    }
    return prepared;
}

FrameworkRunResult
FrameworkAdapter::run(const PreparedModel &prepared,
                      ExecutionEngine &engine) const
{
    engine.clearTimeline();
    // A fresh device address space per run: addresses then depend
    // only on the order this run maps buffers in, never on where the
    // host heap put them or on mappings left by an earlier run.
    engine.allocator().reset();
    engine.run(prepared.opGraph());

    FrameworkRunResult res;
    res.graph = engine.lastGraphReport();
    res.timeline = engine.timeline();
    for (const auto &rec : res.timeline)
        res.kernelUs += rec.wallUs;
    res.endToEndUs =
        ov.initUs +
        static_cast<double>(res.timeline.size()) * ov.perKernelUs +
        res.kernelUs * ov.kernelFactor;
    return res;
}

} // namespace gsuite
