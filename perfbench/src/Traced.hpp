/**
 * @file
 * The traced run: the same points as the untraced pass, but the
 * benchmark calls each layer's public functions itself, in the
 * engine's schedule order, and wraps a span around every call:
 *
 *   graph.load        loadDatasetFor (once per distinct graph)
 *   engine.point      one sweep point, all of its runs
 *     models.build    GnnPipeline constructor
 *     kernels.execute Kernel::execute            (per node)
 *     simgpu.launch   Kernel::makeLaunch         (per node)
 *     profiler.profile HwProfiler::profile       (profiled points)
 *     simgpu.sample_plan buildCtaSamplePlan      (sampled points)
 *     simgpu.run      GpuSimulator::run          (inline when the
 *                     point has one launch lane)
 *     engine.sync     the concurrent launch phase; its children are
 *                     the per-launch simgpu.run spans on each lane
 *   simgpu.run_auto   the same launches on the library's auto SM
 *                     thread count (points whose launches ran inline
 *                     on one thread; outside engine.point, so they
 *                     never count as wall time)
 *   suite.emit        ResultStore::toJson
 *
 * Options mirror what AbstractionModule::makeEngine hands the engine,
 * so every simulated and profiled statistic equals the untraced
 * run's (checked by the caller).
 */

#ifndef PERFBENCH_TRACED_HPP
#define PERFBENCH_TRACED_HPP

#include <map>
#include <string>
#include <vector>

#include "Spans.hpp"
#include "Workloads.hpp"
#include "engine/ExecutionEngine.hpp"

namespace perfbench {

/** Everything the traced run measured. */
struct TracedRun {
    std::vector<Span> spans;
    /** Final run's kernel records per point (untraced-comparable). */
    std::vector<std::vector<gsuite::KernelRecord>> timelines;
    /** outputError of each point's final pipeline output. */
    std::vector<double> outputErr;
    /** Sum of the top-level load, point and emit spans. */
    double wallMs = 0.0;
    /** Sampled CTAs / population over engaged sample plans. */
    int64_t sampledCtas = 0;
    int64_t samplePopulation = 0;
    /** Probe launches whose auto-thread statistics differed. */
    int threadMismatches = 0;
};

/**
 * Run @p w traced. The ResultStore built from the traced records is
 * emitted to @p storePath with @p meta.
 */
TracedRun runTraced(const Workload &w, const std::string &storePath,
                    const std::map<std::string, double> &meta);

} // namespace perfbench

#endif // PERFBENCH_TRACED_HPP
