/**
 * @file
 * Framework adapters: run a GNN pipeline the way PyG, DGL or gSuite
 * itself would — the paper's Fig. 1 framework selection.
 *
 * PyG's GNN models all inherit from MessagePassing, so the PyG path
 * always uses the MP computational model. DGL lowers aggregation to
 * SpMM, so the DGL path always uses SpMM (including SAGEConv, whose
 * mean-reduce is an SpMM with the row-normalized adjacency). The
 * gSuite path honours the user's requested computational model.
 */

#ifndef GSUITE_FRAMEWORKS_FRAMEWORKADAPTER_HPP
#define GSUITE_FRAMEWORKS_FRAMEWORKADAPTER_HPP

#include <memory>
#include <string>
#include <vector>

#include "engine/ExecutionEngine.hpp"
#include "frameworks/Overheads.hpp"
#include "graph/Graph.hpp"
#include "models/GnnModel.hpp"

namespace gsuite {

/** Parse "gsuite"/"pyg"/"dgl"; fatal() on unknown names. */
Framework frameworkFromName(const std::string &name);

/** Canonical display name ("gSuite-MP" style labels are built by
 *  benches; this returns "gsuite"/"pyg"/"dgl"). */
const char *frameworkName(Framework fw);

/** Result of one framework-wrapped inference run. */
struct FrameworkRunResult {
    double endToEndUs = 0.0; ///< init + dispatch + inflated kernels
    double kernelUs = 0.0;   ///< raw (uninflated) kernel time
    std::vector<KernelRecord> timeline;
    /**
     * Dependency/overlap summary of the executed op-graph (node and
     * edge counts, and for sim engines the deterministic serial /
     * critical-path / lane-makespan cycle model). For batched runs
     * the graph is the merge over all replicas.
     */
    GraphRunReport graph;
};

/**
 * A point's model, built once by FrameworkAdapter::prepare and
 * replayed by FrameworkAdapter::run for every measured run: batch
 * pipeline replicas and, for batch > 1, their OpGraph::merge. The
 * input graph must outlive it.
 */
class PreparedModel
{
  public:
    /** The op-graph each run executes (the merge for batch > 1). */
    const OpGraph &
    opGraph() const
    {
        return replicas.size() == 1 ? replicas[0]->opGraph() : merged;
    }

    /** Replica @p i, 0 <= i < batch(). */
    const GnnPipeline &pipeline(size_t i = 0) const
    {
        return *replicas.at(i);
    }

    size_t batch() const { return replicas.size(); }

  private:
    friend class FrameworkAdapter;
    std::vector<std::unique_ptr<GnnPipeline>> replicas;
    OpGraph merged; ///< empty unless batch > 1
};

/**
 * Runs pipelines under a framework's overhead model.
 *
 * Run protocol: prepare() does the one-time setup (preprocessing,
 * CSR assembly, weight init, batching), run() is the repeated
 * inference being measured. The first run of a prepared model is
 * cold — it faults in every activation buffer — and later runs reuse
 * those buffers, as PyG's and DGL's caching allocators do. Every
 * simulated and profiled statistic is identical across runs and to a
 * freshly built model's: run() resets the device address space, so
 * addresses depend only on the order buffers are mapped in, and
 * every kernel fully rewrites its outputs.
 */
class FrameworkAdapter
{
  public:
    explicit FrameworkAdapter(Framework fw);

    /**
     * The computational model this framework would use for @p kind,
     * given the user asked for @p requested (only honoured by the
     * gSuite path).
     */
    CompModel resolveCompModel(GnnModelKind kind,
                               CompModel requested) const;

    /**
     * Build this framework's pipeline for @p graph (resolving the
     * computational model; fatal() on unsupported combinations).
     *
     * @param batch Independent inference requests composed into one
     *        op-graph via OpGraph::merge (>= 1). Each replica is a
     *        full pipeline instance whose roots issue concurrently;
     *        the timeline holds the replicas' kernels back to back
     *        in graph order, each replica's statistics bit-identical
     *        to an unbatched run.
     */
    PreparedModel prepare(const Graph &graph, ModelConfig cfg,
                          int batch = 1) const;

    /**
     * Run @p prepared on @p engine (whose timeline and device
     * address space are reset first, so repeated runs are measured
     * identically), returning framework-adjusted timings.
     */
    FrameworkRunResult run(const PreparedModel &prepared,
                           ExecutionEngine &engine) const;

    Framework framework() const { return fw; }
    const FrameworkOverheads &overheads() const { return ov; }

  private:
    Framework fw;
    FrameworkOverheads ov;
};

} // namespace gsuite

#endif // GSUITE_FRAMEWORKS_FRAMEWORKADAPTER_HPP
