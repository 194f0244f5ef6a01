/**
 * @file
 * The streaming-multiprocessor timing model.
 *
 * Each SM hosts up to maxWarpsPerSm resident warps split across
 * numSchedulers warp schedulers (GTO or LRR). Every cycle, every
 * resident warp is classified into one of the Fig. 6 issue states,
 * and every scheduler slot into one of the Fig. 7 occupancy buckets.
 * Dependencies are tracked with a per-warp scoreboard of virtual
 * register ready-times; global memory goes through MemorySystem.
 *
 * Issue fast path (default): per-warp classifications are cached in
 * structure-of-arrays form (stall class, unblock cycle, expiry
 * cycle, decoded head) and only recomputed when they can change —
 * at `slotExpiry` (the earliest cycle the cached class could read
 * differently) or after an explicit state change (issue, memory
 * completion, barrier release, CTA assignment). The per-cycle work
 * is event-driven: expired classifications come due from a small
 * calendar of expiry cycles and re-derive in slot order, schedulers
 * issue in O(1) from incrementally maintained per-port ready
 * masks over age ranks, and the Fig. 6 stall attribution comes
 * from incrementally maintained per-class counts — no per-warp
 * virtual-register scoreboard walk per cycle (the earliest
 * stall-clear event is swept only on no-issue cycles, each of
 * which opens a fast-forward window). Ready memory-head warps, whose class
 * depends only on the L1 MSHR table, share one table read per
 * cycle instead of being re-derived whenever it fills or drains.
 * The pre-SoA path is kept verbatim behind
 * GpuConfig::referenceIssue; both paths produce bit-identical
 * statistics (KernelStats::classifyEvals, a diagnostic, is the
 * single intended exception), enforced by
 * tests/sim_determinism_test and tests/fuzz_test.
 *
 * Cycle skipping: when nothing issued and every warp's unblock
 * cycle is known, the SM freezes until the earliest of them
 * (idleUntil) and replays its last classification via
 * accountExtra(), attributing the skipped cycles to the same
 * Fig. 6 stall classes / Fig. 7 buckets. The simulator does not
 * even call a frozen or empty SM (wakeCycle()) and settles the
 * skipped calls in bulk (replaySteps()); it performs the same bulk
 * accounting across SMs when the whole GPU stalls.
 *
 * Concurrency contract: one SM is only ever touched by its owning
 * worker thread during the step phase. Global-memory instructions are
 * split across the cycle barrier — the SM begins the access during
 * its step (coalescing + its own L1), the memory slices resolve it
 * after the step barrier, and the SM folds the completion back into
 * its warp state at the start of its next step. Each SM writes its
 * statistics into its own KernelStats instance; the simulator reduces
 * them in SM-index order so totals are thread-count independent.
 *
 * Warp traces stream in fixed-budget chunks refilled on demand from
 * the launch's WarpTraceStream, bounding trace memory at
 * O(resident warps x chunk size).
 */

#ifndef GSUITE_SIMGPU_SM_HPP
#define GSUITE_SIMGPU_SM_HPP

#include <algorithm>
#include <array>
#include <bitset>
#include <cstdint>
#include <vector>

#include "simgpu/CtaSampler.hpp"
#include "simgpu/GpuConfig.hpp"
#include "simgpu/KernelLaunch.hpp"
#include "simgpu/KernelStats.hpp"
#include "simgpu/MemorySystem.hpp"

namespace gsuite {

/** One streaming multiprocessor. */
class Sm
{
  public:
    Sm(const GpuConfig &cfg, int sm_id, MemorySystem &mem);

    /**
     * Prepare for a new launch.
     *
     * @param launch The launch to simulate.
     * @param stats This SM's private statistics sink.
     * @param chunk_instrs Trace-chunk instruction budget.
     * @param idle_skip Enable per-SM idle fast-forwarding.
     * @param sample_records Optional sink receiving one
     *        CtaSampleRecord per CTA completed on this SM (CTA-
     *        sampled simulation); nullptr disables the bookkeeping.
     */
    void beginLaunch(const KernelLaunch *launch, KernelStats *stats,
                     size_t chunk_instrs, bool idle_skip,
                     std::vector<CtaSampleRecord> *sample_records =
                         nullptr);

    /** True if another CTA can become resident. */
    bool hasFreeCtaSlot() const { return activeCtas < maxResidentCtas; }

    /**
     * Make CTA @p cta_id resident. Cheap: warp trace streams are only
     * instantiated here; their first chunks materialize lazily during
     * the next step phase (i.e. on the owning worker).
     */
    void assignCta(int64_t cta_id, uint64_t cycle);

    /** True while any warp is resident and unfinished. */
    bool busy() const { return residentWarps > 0; }

    /**
     * Simulate one cycle: finalize last cycle's parked memory access,
     * refill exhausted trace chunks, classify all warps, let each
     * scheduler issue at most one instruction, and record statistics.
     *
     * @param cycle Current cycle.
     * @param next_event Monotonically lowered to the earliest future
     *        cycle at which this SM's state can change.
     * @return True if any instruction issued.
     */
    bool stepCycle(uint64_t cycle, uint64_t &next_event);

    /**
     * Account @p delta further cycles with the same classification as
     * the last stepCycle() (used to fast-forward long stalls).
     */
    void accountExtra(uint64_t delta);

    /**
     * The first cycle after @p cycle — the cycle just stepped — at
     * which stepCycle() does more than replay the last
     * classification; ~0 when only a CTA assignment can change this
     * SM. Until then stepCycle() may be skipped: replaySteps() then
     * accounts the skipped calls, and the SM's contribution to the
     * merged next event is this cycle itself.
     */
    uint64_t
    wakeCycle(uint64_t cycle) const
    {
        if (parkedWarp >= 0 || (residentWarps == 0 && !lastStepEmpty))
            return cycle + 1;
        if (residentWarps == 0)
            return ~uint64_t{0};
        return std::max(idleUntil, cycle + 1);
    }

    /**
     * Account @p steps skipped stepCycle() calls of a frozen or empty
     * SM, exactly as those calls would have (see wakeCycle()).
     */
    void replaySteps(uint64_t steps);

    /**
     * Fold an unconsumed parked memory access into warp state and
     * stats (end of run, when no further step will happen).
     */
    void drainParkedMem();

    /**
     * Read-only snapshot of this SM's cumulative warp-scheduler
     * counters as of @p cycle, for trace sampling (hwdb
     * `trace.sampling_core`). Called from the control phase — the
     * phase barrier orders it after every stepCycle() write — and
     * touches no mutable state, so sampling cannot perturb any
     * deterministic counter.
     */
    SmSchedSample sampleSchedState(uint64_t cycle) const
    {
        SmSchedSample s;
        s.cycle = cycle;
        if (stats) {
            s.stallCycles = stats->stallCycles;
            s.occCycles = stats->occCycles;
        }
        return s;
    }

  private:
    /** Cold per-warp state (touched on issue / refill, not per cycle). */
    struct WarpCtx {
        bool active = false;
        bool done = false;
        bool waitingBarrier = false;
        WarpTrace chunk; ///< resident trace window (reused arena)
        WarpTraceStream stream;
        bool streamDone = false;
        uint8_t regCursor = 0;
        size_t pc = 0; ///< index into chunk
        std::array<uint64_t, kNumWarpRegs> regReady{};
        std::bitset<kNumWarpRegs> regFromMem;
        uint64_t fetchReady = 0;
        uint64_t atomicDrain = 0;
        int cta = -1;
        uint64_t ageStamp = 0;
        uint64_t chunkBytes = 0; ///< current chunk footprint
    };

    struct CtaCtx {
        bool active = false;
        int64_t ctaId = -1;
        int liveWarps = 0;
        int arrived = 0; ///< warps waiting at the barrier
        std::vector<int> warpSlots;
        // CTA-sample bookkeeping (maintained only when the launch
        // runs with a sample-record sink).
        uint64_t startCycle = 0;
        uint64_t instrs = 0;
    };

    /** Pre-issue classification of one warp (reference path scratch). */
    struct Classification {
        StallReason reason = StallReason::NotSelected;
        uint64_t event = 0; ///< cycle the blocking condition clears
    };

    const GpuConfig &cfg;
    int smId;
    MemorySystem &mem;
    const MshrTable &l1Mshr; ///< this SM's L1 table (only it mutates it)
    const KernelLaunch *launch = nullptr;
    KernelStats *stats = nullptr;
    size_t chunkBudget = 256;
    bool idleSkip = true;
    /** Per-CTA completion sink (CTA sampling); nullptr when off. */
    std::vector<CtaSampleRecord> *sampleRecords = nullptr;

    std::vector<WarpCtx> warps;
    std::vector<CtaCtx> ctas;
    std::vector<Classification> cls; ///< reference-path scratch
    std::vector<uint64_t> aluFree;   ///< per-scheduler ALU port
    std::vector<int> greedyWarp;     ///< GTO sticky pointer
    std::vector<int> rrCursor;       ///< LRR rotation pointer
    uint64_t lsuFree = 0;
    int residentWarps = 0;
    int maxResidentCtas = 0;
    int activeCtas = 0;
    /** The last stepCycle() found no resident warp (idle pattern). */
    bool lastStepEmpty = false;
    uint64_t ageCounter = 0;

    // --- SoA warp-issue state (fast path) ---------------------------
    //
    // Invariant: for every slot with slotActive[i] != 0, the cached
    // (slotReason, slotUnblock) equal what the reference classify()
    // would return this cycle, provided slotExpiry[i] > cycle. Any
    // mutation of warp state that could change the classification
    // must lower slotExpiry (markDirty) so the next sweep
    // re-derives it; reclassify() keeps the per-scheduler ready
    // lists in sync with slotReason.
    std::vector<uint8_t> slotActive;   ///< resident and not done
    std::vector<uint8_t> slotReason;   ///< cached StallReason
    std::vector<uint64_t> slotUnblock; ///< cycle the stall clears
    std::vector<uint64_t> slotExpiry;  ///< first cycle cache can drift
    std::vector<uint8_t> slotIsMem;    ///< head instr needs the LSU
    std::vector<uint8_t> slotNeedsAlu; ///< head instr needs the ALU
    std::vector<uint8_t> slotLanes;    ///< head instr active lanes
    /**
     * Ready (issuable) slots per scheduler, segregated by the
     * execution port the head instruction needs (kReadyAlu /
     * kReadyMem / kReadyOther), as bit masks over the scheduler's
     * age ranks — so the oldest ready slot of a port is the lowest
     * set bit. A whole busy port disqualifies its entire mask, so
     * GTO's pick is an O(1) head comparison across the eligible
     * masks instead of attempting every blocked candidate; the
     * blocked masks' head ranks still tell exactly which reference
     * attempts would have happened (for the structural-stall flag
     * and hazard event merges, which are idempotent per port). A
     * full L1 MSHR table hides the kReadyMem masks altogether:
     * their warps are MshrFull that cycle, not candidates.
     */
    static constexpr int kReadyAlu = 0;
    static constexpr int kReadyMem = 1;
    static constexpr int kReadyOther = 2;
    static constexpr int kNoRank = 1 << 30;
    /**
     * Per scheduler: its resident slots in ascending ageStamp order
     * (a slot's index here is its rank). CTA assignment appends the
     * youngest warps; a finished warp's removal shifts the later
     * ranks down.
     */
    std::vector<std::vector<int>> ageOrder;
    std::vector<int> slotRank; ///< slot -> rank in its scheduler
    int rankWords = 1;         ///< 64-bit words per rank mask
    /** Masks by rank, index ((kind * ns) + sched) * rankWords + word. */
    std::vector<uint64_t> readyBits;
    std::vector<int8_t> slotReadyKind; ///< mask a slot is in, -1 none
    /**
     * Expiry calendar: every slotExpiry assignment also sets the
     * slot's bit in the set that covers its cycle — `dueNow` when it
     * is at or before `lastSwept`, the wheel bucket (cycle mod
     * kWheel) when it falls in the next kWheel cycles, else
     * `farSlots` (with `farMin` its earliest). A sweep gathers the
     * buckets of the cycles since `lastSwept` and re-derives the
     * gathered slots whose expiry is due; a bit left behind by a
     * later expiry change is dropped there. Masks are `slotWords`
     * 64-bit words over slot indices.
     */
    static constexpr uint64_t kWheel = 64;
    int slotWords = 1;
    std::vector<uint64_t> wheel; ///< kWheel buckets x slotWords
    std::vector<uint64_t> dueNow;
    std::vector<uint64_t> farSlots;
    std::vector<uint64_t> dueScratch;
    uint64_t farMin = 0;
    uint64_t lastSwept = 0;
    /** Active slots per cached stall class (incremental Fig. 6). */
    std::array<uint64_t, kNumStallReasons> stallCount{};

    /**
     * Parked memory access awaiting slice resolution: the issuing
     * warp slot (or -1) plus where the completion lands.
     */
    int parkedWarp = -1;
    Reg parkedDst = kNoReg;
    MemAccessKind parkedKind = MemAccessKind::Load;

    /**
     * Nothing on this SM can change before this cycle (no issue
     * possible, all events known): stepCycle() just replays the last
     * classification until then. Cleared by CTA assignment.
     */
    uint64_t idleUntil = 0;

    uint64_t residentTraceBytes = 0;
    uint64_t peakTraceBytes = 0;

    // Last cycle's per-state counts, for accountExtra().
    std::array<uint64_t, kNumStallReasons> lastStall{};
    std::array<uint64_t, kNumOccBuckets> lastOcc{};

    Classification classify(int slot, uint64_t cycle) const;
    void issueInstr(int slot, uint64_t cycle, int sched);
    void releaseBarrierIfComplete(CtaCtx &cta, uint64_t cycle);
    void finishWarp(int slot, uint64_t cycle);
    OccBucket bucketForLanes(int lanes) const;
    void refillChunk(WarpCtx &w);
    void finalizeParkedMem();

    // Fast-path helpers.
    void markDirty(int slot, uint64_t at_cycle);
    void readyInsert(int slot);
    void readyRemove(int slot);
    /** First word of @p kind's rank mask on scheduler @p sched. */
    size_t readyIndex(int kind, int sched) const
    {
        return static_cast<size_t>((kind * cfg.numSchedulers + sched) *
                                   rankWords);
    }
    uint64_t *readyMask(int kind, int sched)
    {
        return readyBits.data() + readyIndex(kind, sched);
    }
    /** Lowest set rank of @p kind's mask on @p sched, or kNoRank. */
    int oldestReady(int kind, int sched) const;
    void setExpiry(int slot, uint64_t at_cycle);
    /** Re-derive every slot whose expiry is due at @p cycle. */
    void sweepExpired(uint64_t cycle);
    void setReason(int slot, StallReason reason);
    void reclassify(int slot, uint64_t cycle);
    bool stepCycleFast(uint64_t cycle, uint64_t &next_event);
    bool stepCycleReference(uint64_t cycle, uint64_t &next_event);
};

} // namespace gsuite

#endif // GSUITE_SIMGPU_SM_HPP
