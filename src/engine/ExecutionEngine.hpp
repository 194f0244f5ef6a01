/**
 * @file
 * Execution engines: where a GNN pipeline's kernels actually run.
 *
 * FunctionalEngine runs the functional semantics with wall-clock
 * timing (the "real GPU card + nvprof" measurement path); SimEngine
 * additionally feeds every launch through the timing simulator (the
 * "GPGPU-Sim" path). Both record a per-kernel timeline that the
 * benches aggregate into the paper's figures.
 */

#ifndef GSUITE_ENGINE_EXECUTIONENGINE_HPP
#define GSUITE_ENGINE_EXECUTIONENGINE_HPP

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ir/OpGraph.hpp"
#include "kernels/Kernel.hpp"
#include "profiler/HwProfiler.hpp"
#include "simgpu/DeviceAllocator.hpp"
#include "simgpu/GpuSimulator.hpp"
#include "simgpu/KernelStats.hpp"
#include "util/ThreadPool.hpp"

namespace gsuite {

class TraceSink;

/** One executed kernel in an engine's timeline. */
struct KernelRecord {
    std::string name;
    KernelClass kind = KernelClass::Aux;
    double wallUs = 0.0; ///< functional host execution time

    bool hasSim = false;
    KernelStats sim; ///< populated by SimEngine

    bool hasHw = false;
    HwProfileResult hw; ///< populated when cache profiling is on
};

/**
 * Dependency/overlap summary of one ExecutionEngine::run(OpGraph&)
 * call. The cycle fields model launch-level concurrency over the
 * engine's simulation lanes (OpGraph::makespan); they are derived
 * from deterministic per-launch cycle counts and the deterministic
 * schedule, so they are themselves deterministic.
 */
struct GraphRunReport {
    size_t nodes = 0;
    size_t edges = 0;
    size_t levels = 0; ///< dependency depth of the graph
    size_t parts = 1;  ///< merged sub-pipelines (batch size)
    int lanes = 1;     ///< concurrent launch lanes modeled
    size_t maxLevelWidth = 0; ///< widest dependency level

    bool hasSim = false; ///< cycle fields valid (sim engine only)
    uint64_t serialCycles = 0;       ///< sum of launch cycles
    uint64_t criticalPathCycles = 0; ///< longest dependency chain
    uint64_t makespanCycles = 0;     ///< list-schedule over lanes

    /** True when plan-backed placement ran (mem-plan mode + full
     *  span coverage); functional execution was level-parallel. */
    bool planned = false;
    /** MemPlan::peakBytes() of the graph (0 without coverage). */
    uint64_t memPeakPlannedBytes = 0;
    /** Naive bump-layout total (0 without coverage). */
    uint64_t memPeakNaiveBytes = 0;
};

/** Abstract engine. */
class ExecutionEngine
{
  public:
    virtual ~ExecutionEngine() = default;

    /** Execute one kernel and append a record to the timeline. */
    void run(Kernel &kernel) { runKernel(kernel, alloc); }

    /**
     * Execute a dataflow graph. In the default naive mode every node
     * runs in the graph's deterministic schedule order (so the
     * timeline — and on the sim engine every launch's
     * device-address layout and stats — is bit-identical to running
     * the kernels serially one by one), then sync()s so deferred
     * simulations overlap across the engine's lanes. In mem-plan
     * mode (setMemPlanMode) functional execution is level-parallel
     * and launches are built against a pre-planned frozen address
     * layout — statistics stay bit-identical because the canonical
     * plan layout IS the naive layout. Merged graphs give each part
     * its own device address space, making per-part statistics
     * bit-identical to running that part's pipeline alone on a
     * fresh engine. Fills lastGraphReport().
     */
    void run(const OpGraph &graph);

    /**
     * Wait for any deferred measurement work (e.g. concurrently
     * simulated launches) to finish. Must be called before operand
     * buffers referenced by recorded launches are destroyed; reading
     * the timeline does it implicitly.
     */
    virtual void sync() {}

    /**
     * Install a hook called before each node of run(OpGraph&) with
     * the node's schedule index and kernel. Fault-injection layers
     * throw RunException(RunError::FaultInjected) from it to
     * exercise the engine's failure-propagation path; the engine
     * drains deferred work before rethrowing so unwinding never
     * leaves simulations referencing dead operand buffers.
     * Pass nullptr to clear.
     */
    void
    setFaultHook(
        std::function<void(size_t, const Kernel &)> hook)
    {
        faultHook = std::move(hook);
    }

    /**
     * Enable plan-backed placement for run(OpGraph&): functional
     * execution goes level-parallel (same-level nodes have no
     * dependency path between them), then a MemPlan pre-maps and
     * freezes every declared span in canonical schedule order before
     * any launch is built — so device addresses, and therefore every
     * simulated statistic, stay bit-identical to a naive in-order
     * run. Graphs with undeclared spans (barriers, external kernels)
     * fall back to naive on-demand placement with a warn().
     *
     * @param execThreads Lanes for level-parallel functional
     *        execution; 0 = auto.
     */
    void
    setMemPlanMode(bool on, int execThreads = 0)
    {
        planMode = on;
        planThreads = execThreads;
    }
    bool memPlanMode() const { return planMode; }

    /**
     * Attach a trace sink (src/obs; nullptr detaches). Each
     * run(OpGraph&) call then appends its engine/sm/memplan tracks
     * (per-lane node spans, sampled warp-scheduler counters on the
     * sim engine, memory high-water + spill/reload spans) to the
     * sink, and the sim engine turns on SM warp-scheduler sampling
     * for its launches. Observation only: every deterministic
     * counter is bit-identical with a sink attached or not (pinned
     * by golden_stats_test). The sink must outlive the engine's last
     * run; the caller owns export.
     */
    void setTraceSink(TraceSink *sink) { trace = sink; }
    TraceSink *traceSink() const { return trace; }

    /** Summary of the most recent run(OpGraph&) call. */
    const GraphRunReport &lastGraphReport() const
    {
        return graphReport;
    }

    /** All kernels executed so far, in order (sync()s first). */
    const std::vector<KernelRecord> &
    timeline()
    {
        sync();
        return records;
    }

    /** Drop the timeline (new measurement run; sync()s first). */
    void
    clearTimeline()
    {
        sync();
        records.clear();
    }

    /** Sum of functional wall-clock times, microseconds. */
    double totalWallUs() const;

    /** Device address space shared by all launches of this engine. */
    DeviceAllocator &allocator() { return alloc; }

  protected:
    /**
     * Execute one kernel against an explicit device address space
     * and append a record (functional execution + measurement).
     * run(Kernel&) passes the engine's shared allocator; naive-mode
     * run(OpGraph&) passes a per-part allocator for merged graphs so
     * each part's address layout matches a standalone run.
     */
    void runKernel(Kernel &kernel, DeviceAllocator &kernelAlloc);

    /**
     * Measurement face of one already-executed kernel: build its
     * launch against @p kernelAlloc and fill records[recordIndex]'s
     * sim/hw fields. Plan-backed runs call this in schedule order
     * after the level-parallel functional phase; runKernel() calls
     * it right after execute(). Default: no measurement.
     */
    virtual void measureKernel(size_t recordIndex, Kernel &kernel,
                               DeviceAllocator &kernelAlloc)
    {
        (void)recordIndex;
        (void)kernel;
        (void)kernelAlloc;
    }

    /**
     * Launch lanes the makespan model of run(OpGraph&) uses; the
     * sim engine reports its concurrent-launch lane count.
     */
    virtual int concurrentLaneCount() const { return 1; }

    std::vector<KernelRecord> records;
    DeviceAllocator alloc;
    GraphRunReport graphReport;
    std::function<void(size_t, const Kernel &)> faultHook;
    TraceSink *trace = nullptr;
    bool planMode = false;
    int planThreads = 0;

  private:
    /** Level-parallel functional phase of a plan-backed run. */
    void executeLevels(const OpGraph &graph, size_t firstRecord);

    std::unique_ptr<ThreadPool> execPool;
};

/** Host-execution engine with optional hardware cache profiling. */
class FunctionalEngine : public ExecutionEngine
{
  public:
    struct Options {
        bool profileCaches = false; ///< fill KernelRecord::hw
        HwProfilerConfig hwConfig;
    };

    FunctionalEngine() = default;
    explicit FunctionalEngine(Options opts);

  protected:
    void measureKernel(size_t recordIndex, Kernel &kernel,
                       DeviceAllocator &kernelAlloc) override;

  private:
    Options opts;
    /** Set iff opts.profileCaches; reused by every launch. */
    std::optional<HwProfiler> profiler;
};

/** Timing-simulation engine (functional execution + GPGPU-Sim-like). */
class SimEngine : public ExecutionEngine
{
  public:
    struct Options {
        GpuConfig gpu = GpuConfig::v100Sim();
        SimOptions sim;
        bool profileCaches = false; ///< also fill KernelRecord::hw
        HwProfilerConfig hwConfig;

        /**
         * Independent launches simulated concurrently, each on its
         * own single-threaded GpuSimulator instance. Launch timing is
         * independent of launch order (every launch starts from a
         * flushed device), so results are identical to serial
         * simulation. 1 = inline/serial; 0 = auto.
         */
        int parallelLaunches = 1;
    };

    SimEngine() : SimEngine(Options{}) {}
    explicit SimEngine(Options opts);

    void sync() override;

    const GpuConfig &gpuConfig() const { return sim.config(); }

  protected:
    void measureKernel(size_t recordIndex, Kernel &kernel,
                       DeviceAllocator &kernelAlloc) override;
    int concurrentLaneCount() const override
    {
        return effectiveParallel();
    }

  private:
    struct PendingSim {
        size_t recordIndex;
        KernelLaunch launch;
        uint64_t deviceBytesPeak = 0;
    };

    Options opts;
    GpuSimulator sim;
    /** Set iff opts.profileCaches; reused by every launch. */
    std::optional<HwProfiler> profiler;
    std::vector<PendingSim> pending;
    std::unique_ptr<ThreadPool> simPool;
    std::vector<std::unique_ptr<GpuSimulator>> laneSims;

    int effectiveParallel() const;
    /** Turn on SM warp-scheduler sampling when the attached sink
     *  selects the sm component. */
    void applySmSampling(SimOptions &runOpts) const;
};

} // namespace gsuite

#endif // GSUITE_ENGINE_EXECUTIONENGINE_HPP
