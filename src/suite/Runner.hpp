/**
 * @file
 * Fig. 1's Abstraction Module plus Data Loader: resolves
 * framework/model/dataset decisions, loads data and builds the
 * engine; RunOutcome is the aggregated result of one configuration.
 * Running a point (load, build, run, aggregate) is
 * BenchSession::runPoint.
 */

#ifndef GSUITE_SUITE_RUNNER_HPP
#define GSUITE_SUITE_RUNNER_HPP

#include <map>
#include <memory>
#include <vector>

#include "engine/ExecutionEngine.hpp"
#include "frameworks/FrameworkAdapter.hpp"
#include "graph/Graph.hpp"
#include "suite/UserParams.hpp"

namespace gsuite {

/** Aggregated outcome of one benchmark configuration. */
struct RunOutcome {
    UserParams params;
    std::string graphSummary;
    std::string scaleDescription;

    double meanEndToEndUs = 0.0; ///< mean over runs (paper: 3 runs)
    double minEndToEndUs = 0.0;
    double maxEndToEndUs = 0.0;
    double meanKernelUs = 0.0;

    /**
     * Per-run end-to-end / kernel-time samples, one entry per run,
     * in run order (the mean/min/max above summarize these).
     */
    std::vector<double> endToEndSamplesUs;
    std::vector<double> kernelSamplesUs;

    /**
     * Named scalar results. The default runner attaches the
     * executed op-graph's deterministic overlap model on sim
     * points (graph_serial_cycles, graph_critical_path_cycles,
     * graph_makespan_cycles, graph_lanes, graph_levels — see
     * ExecutionEngine::run(OpGraph&)); custom point runners add
     * their own (e.g. training accuracy, paired-config speedups).
     * Emitted verbatim by ResultStore::toJson.
     */
    std::map<std::string, double> metrics;

    /**
     * hwdb key/value snapshot of the machine this point actually
     * simulated, captured at run time (sim engine points only) so
     * emitted provenance cannot drift from a config file edited or
     * deleted after the run.
     */
    std::vector<std::pair<std::string, std::string>>
        gpuConfigSnapshot;

    /**
     * Chrome-trace file this point wrote ("" when tracing was off).
     * Multi-point sessions derive per-point paths from
     * UserParams::tracePath; the path also lands in the results CSV
     * and JSON as trace_path.
     */
    std::string tracePath;

    /** Per-kernel timeline of the final run. */
    std::vector<KernelRecord> timeline;
};

/** Fig. 1's decision layer, exposed for reuse by benches. */
class AbstractionModule
{
  public:
    /** Build the engine the params ask for. */
    static std::unique_ptr<ExecutionEngine>
    makeEngine(const UserParams &params);

    /**
     * Same, with the machine already resolved — callers that also
     * record provenance (BenchSession::runPoint) resolve once and
     * pass it here, so a file: spec is parsed a single time and the
     * snapshot cannot diverge from the simulated config. Only
     * meaningful for sim-engine params.
     */
    static std::unique_ptr<ExecutionEngine>
    makeEngine(const UserParams &params, const GpuConfig &gpu);
};

/** Loads a dataset per the params (Fig. 1's Data Loader). */
Graph loadDatasetFor(const UserParams &params);

/** Wall-clock microseconds per kernel class over a timeline. */
std::map<KernelClass, double>
wallUsByClass(const std::vector<KernelRecord> &timeline);

/**
 * Merge simulator statistics of all timeline kernels of the same
 * class (e.g. every scatter launch of a pipeline), keyed by class.
 */
std::map<KernelClass, KernelStats>
simStatsByClass(const std::vector<KernelRecord> &timeline);

} // namespace gsuite

#endif // GSUITE_SUITE_RUNNER_HPP
