/**
 * @file
 * Top-level timing simulator: dispatches a KernelLaunch's CTAs across
 * the SMs and runs the cycle loop with stall fast-forwarding.
 *
 * This is the stand-in for GPGPU-Sim 4.0 in the paper's methodology.
 *
 * The cycle loop can step SMs concurrently on a persistent worker
 * pool. Each cycle runs three barrier-separated phases:
 *   step     — every worker steps its due SMs (classify + issue +
 *              L1); a frozen or empty SM is skipped until its wake
 *              cycle and its replayed accounting settles in bulk;
 *   resolve  — every worker services its L2/DRAM address slices
 *              (skipped when no SM holds a parked access);
 *   control  — worker 0 merges events, fast-forwards stalls, assigns
 *              CTAs and decides termination.
 * All cross-thread state is partitioned by SM index or slice index
 * and every reduction runs in index order, so KernelStats are
 * bit-identical for any worker-thread count.
 */

#ifndef GSUITE_SIMGPU_GPUSIMULATOR_HPP
#define GSUITE_SIMGPU_GPUSIMULATOR_HPP

#include <atomic>
#include <memory>
#include <vector>

#include "simgpu/GpuConfig.hpp"
#include "simgpu/KernelLaunch.hpp"
#include "simgpu/KernelStats.hpp"
#include "simgpu/MemorySystem.hpp"
#include "simgpu/Sm.hpp"
#include "util/ThreadPool.hpp"

namespace gsuite {

/** Per-run simulation options. */
struct SimOptions {
    /**
     * CTA sampling cap: launches bigger than this simulate only the
     * first maxCtas CTAs (several full waves across the SM subset).
     * Ratio statistics are representative under homogeneous-CTA
     * sampling; cycle counts are scaled back by the sampling factor
     * in KernelStats::timeMs().
     */
    int64_t maxCtas = 2048;

    /** Hard safety limit; the run aborts with a warning beyond it. */
    uint64_t cycleLimit = 50'000'000;

    /**
     * Worker threads stepping SMs (and servicing memory slices),
     * clamped to numSms. 0 = auto = 1: every simulated cycle crosses
     * three barriers, and more threads were slower than one on every
     * host measured (see src/simgpu/README.md). Results are identical
     * for every value; this only affects wall-clock time.
     */
    int numThreads = 0;

    /**
     * Instruction budget per streamed trace chunk. Smaller chunks cap
     * trace memory harder; larger chunks amortize generator calls.
     * Statistics are invariant to this value.
     */
    int traceChunkInstrs = 256;

    /**
     * Per-SM idle fast-forwarding: an SM that cannot issue before a
     * known future cycle replays its last classification instead of
     * recomputing it. Statistics are invariant; disabling recovers
     * the legacy every-SM-every-cycle stepping (ablation/debugging).
     */
    bool perSmFastForward = true;

    /**
     * Watchdog ceiling: a kernel that reaches this many cycles fails
     * with RunException(RunError::Timeout) instead of completing.
     * 0 disables. Unlike cycleLimit — which truncates the run with a
     * warning and still reports stats — the ceiling is an error, so
     * sweeps can bound runaway points deterministically.
     */
    uint64_t cycleCeiling = 0;

    /**
     * Watchdog cancel flag, polled once per control phase. When it
     * becomes true the run aborts with RunException(Timeout). The
     * abort cycle depends on wall-clock timing, but a cancelled run
     * reports no stats, so determinism of successful runs holds.
     */
    const std::atomic<bool> *cancel = nullptr;

    /**
     * Warp-scheduler trace sampling (src/obs, hwdb trace.* keys):
     * when enabled, the control phase snapshots the cumulative
     * stall/occupancy counters of SM smSampleCore at the first
     * stepped cycle at or past each smSampleIntervalCycles boundary,
     * into KernelStats::smSamples. Pure observation — the samples
     * are read under the phase barrier and no simulated state is
     * touched, so every deterministic counter is bit-identical with
     * sampling on or off, and across thread counts.
     */
    bool smSampleEnabled = false;
    int smSampleCore = 0;
    uint64_t smSampleIntervalCycles = 1024;
};

/** Timing-detailed GPU simulator. */
class GpuSimulator
{
  public:
    explicit GpuSimulator(GpuConfig config = GpuConfig::v100Sim());

    /** Run one kernel to completion and return its statistics. */
    KernelStats run(const KernelLaunch &launch,
                    const SimOptions &opts = {});

    const GpuConfig &config() const { return cfg; }

    /** Worker threads a run with @p opts uses (see numThreads). */
    int resolveThreads(const SimOptions &opts) const;

  private:
    /** Shared per-run control state (see the cycle-phase contract). */
    struct RunControl {
        int64_t ctasToSim = 0;
        int64_t nextCta = 0;
        uint64_t cycle = 0;
        uint64_t cycleLimit = 0;
        uint64_t cycleCeiling = 0;
        const std::atomic<bool> *cancel = nullptr;
        bool done = false;
        bool hitLimit = false;
        bool hitCeiling = false;
        bool cancelled = false;
        std::vector<uint8_t> issuedBy; ///< per-worker issue flags
        std::vector<uint64_t> eventBy; ///< per-worker event minima
        /** Per-worker: some SM of the worker holds a parked access. */
        std::vector<uint8_t> parkedBy;
        /**
         * Due-work calendar, per SM: the next cycle its step does
         * real work (Sm::wakeCycle), and the steps skipped since,
         * which settle() replays in bulk.
         */
        std::vector<uint64_t> wakeAt;
        std::vector<uint64_t> skippedSteps;
        /**
         * CTA-sampled runs assign the plan's CTA ids instead of the
         * dense prefix; nextCta then indexes this order. nullptr in
         * full runs.
         */
        const std::vector<int64_t> *sampleOrder = nullptr;
        // Trace sampling (worker 0 only, under the phase barrier).
        bool sampleEnabled = false;
        int sampleCore = 0;
        uint64_t sampleInterval = 0;
        uint64_t nextSampleCycle = 0;
        std::vector<SmSchedSample> samples;
    };

    GpuConfig cfg;
    MemorySystem mem;
    std::vector<std::unique_ptr<Sm>> sms;
    std::vector<KernelStats> smStats;
    std::unique_ptr<ThreadPool> pool;

    void stepRange(int begin, int end, RunControl &ctl, int worker);
    void resolveRange(int begin, int end, const RunControl &ctl);
    void controlPhase(RunControl &ctl);
    /** Replay SM @p sm's skipped steps into its statistics. */
    void settle(RunControl &ctl, int sm);
    /** Take pending CTAs onto free SM slots at @p cycle. */
    void assignCtas(RunControl &ctl, uint64_t cycle);
};

} // namespace gsuite

#endif // GSUITE_SIMGPU_GPUSIMULATOR_HPP
