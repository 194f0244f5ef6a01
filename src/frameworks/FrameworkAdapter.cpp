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

FrameworkRunResult
FrameworkAdapter::run(const Graph &graph, ModelConfig cfg,
                      ExecutionEngine &engine, int batch) const
{
    if (batch < 1)
        fatal("batch size must be >= 1 (got %d)", batch);
    cfg.comp = resolveCompModel(cfg.model, cfg.comp);
    // DGL's SAGEConv lowers mean aggregation to SpMM; permit it on
    // the DGL path only (gSuite matches the paper and rejects it).
    if (fw == Framework::Dgl)
        cfg.allowSpmmSage = true;

    engine.clearTimeline();
    // A fresh device address space per run: this run's pipeline
    // allocates new host buffers, and a mapping left by an earlier
    // run could match one of them wherever the host heap happens to
    // put it — the device layout, and with it every cache count,
    // would then depend on the heap.
    engine.allocator().reset();
    if (batch == 1) {
        GnnPipeline pipeline(graph, cfg);
        pipeline.run(engine);
    } else {
        // Batched inference: N independent pipeline instances (the
        // shared input graph is read-only, so the merged graph's
        // parts stay write-disjoint) composed into one op-graph
        // whose roots all issue concurrently.
        std::vector<std::unique_ptr<GnnPipeline>> replicas;
        std::vector<const OpGraph *> graphs;
        replicas.reserve(static_cast<size_t>(batch));
        graphs.reserve(static_cast<size_t>(batch));
        for (int b = 0; b < batch; ++b) {
            replicas.push_back(
                std::make_unique<GnnPipeline>(graph, cfg));
            graphs.push_back(&replicas.back()->opGraph());
        }
        // run() sync()s before returning, so the replicas may die
        // when this scope ends.
        engine.run(OpGraph::merge(graphs));
    }

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
