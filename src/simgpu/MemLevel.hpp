/**
 * @file
 * Chainable memory levels (HybridSim-style setNextLevel
 * composition): a cache level owns a sectored Cache plus a finite
 * MSHR table and forwards misses to whatever MemLevel it is chained
 * to; the terminal level is a banked DRAM channel with per-bank row
 * state and a selectable FR-FCFS/FCFS scheduler over a bounded
 * request queue.
 *
 * MemorySystem builds one chain per L2 slice (CacheLevel ->
 * DramChannel) plus one un-chained CacheLevel per SM for the L1 —
 * the L1's "next level" hop crosses the simulator's phase barrier
 * (an L1 miss is routed to its address slice by MemorySystem), so
 * the L1 level keeps next == nullptr and only contributes its cache
 * and MSHR table to phase 1.
 *
 * Determinism: every object here is owned by exactly one worker at
 * a time (an L1 level by its SM's worker, a slice chain by the
 * single worker resolving that slice this cycle) and all service
 * decisions are functions of request content and arrival order,
 * never of wall-clock or thread scheduling.
 */

#ifndef GSUITE_SIMGPU_MEMLEVEL_HPP
#define GSUITE_SIMGPU_MEMLEVEL_HPP

#include <cstdint>
#include <vector>

#include "simgpu/Cache.hpp"
#include "simgpu/GpuConfig.hpp"

namespace gsuite {

/**
 * Finite table of in-flight misses. An entry is busy while its fill
 * is outstanding (release pending) or until its release cycle
 * passes; freeing is lazy — acquire() treats any entry whose
 * release is <= the access time as reusable.
 *
 * The table keeps a count of pending entries and the sorted known
 * release cycles (ready/nextRelease: one binary search), a min-tree
 * of each entry's "free from" cycle (the lowest free entry at any
 * access time: one root-to-leaf descent), and a flat per-entry line
 * array (merge lookup: one contiguous scan in entry order, the merge
 * order a linear scan over the entries gives, skipped when a counting
 * filter shows no entry holds the line). Nothing allocates
 * after configure(). Query times may be non-monotone (L2 tables see
 * out-of-order `at` values within one cycle); every answer is the
 * one a linear scan over the entries would give.
 */
class MshrTable
{
  public:
    static constexpr uint64_t kPendingRelease = ~uint64_t{0};

    void configure(const MshrConfig &cfg);
    void reset();

    /**
     * True when a new access may enter this level at @p cycle: the
     * number of busy entries is below the hit-under-miss limit.
     */
    bool ready(uint64_t cycle) const;

    /**
     * Earliest cycle after @p cycle at which a busy entry releases.
     * kPendingRelease when there are busy entries whose release is
     * not yet known (fill still being resolved); 0 when nothing is
     * busy.
     */
    uint64_t nextRelease(uint64_t cycle) const;

    /**
     * Claim an entry for a miss on @p line at time @p at. Merges
     * into the lowest-index busy same-line entry under the merge
     * cap; otherwise takes the lowest-index free entry; otherwise
     * delays @p at to the earliest known release and takes the entry
     * it frees. Returns the entry index, or -1 when no entry can be
     * claimed yet (every entry busy and some release unknown) — the
     * caller must retry later. The only way the table turns from
     * ready to full.
     */
    int acquire(uint64_t line, uint64_t &at);

    /**
     * Record (or extend) the release cycle of @p entry once its
     * fill completion is known. Merged fills extend monotonically.
     */
    void release(int entry, uint64_t release_at);

  private:
    /** Line slot of an entry never claimed since reset (no line is
     *  this large: lines are byte addresses divided by the line
     *  size). */
    static constexpr uint64_t kNoLine = ~uint64_t{0};

    struct Entry {
        uint64_t releaseAt = 0; ///< kPendingRelease while unknown
        int merges = 0;
        bool used = false; ///< ever claimed since reset
    };

    std::vector<Entry> entries;
    /** Line of each entry (kNoLine until claimed), scanned on merge. */
    std::vector<uint64_t> entryLine;
    /**
     * Counting filter over entryLine: claimed entries per line bucket
     * (line mod kLineBuckets). A zero bucket skips the merge scan.
     */
    static constexpr size_t kLineBuckets = 256;
    std::vector<uint32_t> lineBucket;
    MshrConfig cfg;
    int pending = 0; ///< used entries whose release is unknown
    /** Known release cycles of used entries, ascending. */
    std::vector<uint64_t> known;
    /**
     * Min segment tree over the entries' "free from" cycle (0 never
     * used, kPendingRelease pending, else releaseAt); leaves start at
     * treeLeaves, padding leaves hold kPendingRelease.
     */
    std::vector<uint64_t> freeTree;
    size_t treeLeaves = 1;

    size_t busyKnownAfter(uint64_t cycle) const;
    void setFreeFrom(int entry, uint64_t cycle);
    int lowestFreeAt(uint64_t at) const;
    void addKnown(uint64_t cycle);
    void dropKnown(uint64_t cycle);
};

/**
 * Abstract chainable level (setNextLevel composition). The
 * admission protocol (canAccept/request/service/readyOf) has
 * refuse-everything defaults so a level only overrides the parts it
 * implements; a chain's terminal level must implement all of them.
 */
class MemLevel
{
  public:
    virtual ~MemLevel() = default;

    void setNextLevel(MemLevel *next) { next_ = next; }
    MemLevel *nextLevel() const { return next_; }

    /** Drop all state (between kernel launches). */
    virtual void reset() = 0;

    /** May this level admit one more request right now? */
    virtual bool canAccept(uint64_t) const { return false; }

    /**
     * Admit a request for the sector at @p addr arriving at @p at.
     * Returns a ticket redeemable after service(), or -1 when the
     * level refused admission (bounded queue full).
     */
    virtual int request(uint64_t, uint64_t) { return -1; }

    /** Service everything admitted since the last service(). */
    virtual void service() {}

    /** Data-ready cycle of an admitted ticket (after service()). */
    virtual uint64_t readyOf(int) const { return 0; }

  protected:
    MemLevel *next_ = nullptr;
};

/**
 * Banked DRAM channel: per-bank open-row state with RCD/RAS/RP/CCD
 * timing, a shared data bus carrying the configured bandwidth share,
 * and a bounded per-cycle request queue drained by an FR-FCFS or
 * FCFS scheduler. Tickets are per-cycle: MemorySystem calls
 * beginCycle() before admitting, service() once all requests of the
 * cycle are queued, then redeems every ticket the same cycle.
 */
class DramChannel final : public MemLevel
{
  public:
    /**
     * @param dram Timing/scheduling parameters.
     * @param dram_latency Fixed round-trip pipe latency (cycles)
     *        charged on top of the bank/bus schedule.
     * @param cycles_per_sector Data-bus occupancy of one sector
     *        (fractional: bandwidth is sub-cycle per 32 B).
     */
    DramChannel(const DramConfig &dram, int dram_latency,
                double cycles_per_sector);

    /** Start a cycle: recycle the previous cycle's tickets. */
    void beginCycle();

    void reset() override;
    bool canAccept(uint64_t at) const override;
    int request(uint64_t addr, uint64_t at) override;
    void service() override;
    uint64_t readyOf(int ticket) const override;

    /** Whether the ticket's request hit an open row (after service). */
    bool rowHitOf(int ticket) const;

    /** Data-bus busy cycles since reset() (fractional). */
    double busyCycles() const { return busy; }

    /** High-water mark of the request queue since reset(). */
    uint64_t queuePeak() const { return peak; }

  private:
    struct Bank {
        bool open = false;
        uint64_t openRow = 0;
        uint64_t readyAt = 0;    ///< earliest next column command
        uint64_t activateAt = 0; ///< last activate (tRAS fence)
    };

    struct Request {
        uint64_t addr = 0;
        uint64_t at = 0;
        int ticket = -1;
    };

    struct Result {
        uint64_t ready = 0;
        bool rowHit = false;
    };

    DramConfig cfg;
    int dramLatency;
    double cyclesPerSector;

    std::vector<Bank> banks;
    std::vector<Request> queue; ///< this cycle's admissions, in order
    std::vector<Result> results;
    double busNextFree = 0.0;
    double busy = 0.0;
    uint64_t peak = 0;

    int bankOf(uint64_t addr) const;
    uint64_t rowOf(uint64_t addr) const;
    void serve(const Request &r);
};

/**
 * One cache level: sectored Cache + finite MSHR table, chained to
 * the next level. serviceSector()/completeFill() implement the
 * slice-side (L2) protocol; the L1 uses the cache()/mshr()
 * accessors directly from MemorySystem's phase-1 code.
 */
class CacheLevel final : public MemLevel
{
  public:
    /**
     * @param geometry Cache geometry of this level.
     * @param mshr_cfg MSHR table configuration.
     * @param hit_latency Hit latency charged at this level.
     */
    CacheLevel(const CacheGeometry &geometry,
               const MshrConfig &mshr_cfg, int hit_latency);

    /** Outcome of one sector service attempt. */
    struct Outcome {
        enum class Kind {
            Hit,      ///< served here; `ready` is valid
            Forwarded, ///< miss sent to the next level; `ticket` valid
            Rejected, ///< back-pressured; retry next cycle
        };
        Kind kind = Kind::Rejected;
        uint64_t ready = 0;
        int ticket = -1;
        int mshrEntry = -1;
    };

    /**
     * Probe for the sector at @p addr at @p issue_at; on a miss,
     * claim an MSHR entry and forward to the next level. Rejected
     * when the next level's queue is full or every MSHR entry is
     * busy with an unknown release.
     */
    Outcome serviceSector(uint64_t addr, uint64_t issue_at);

    /**
     * Complete a forwarded miss: install the sector (valid at
     * @p ready) and release its MSHR entry.
     */
    void completeFill(uint64_t addr, uint64_t issue_at,
                      uint64_t ready, int mshr_entry);

    void reset() override;
    bool canAccept(uint64_t at) const override
    {
        return table.ready(at);
    }

    Cache &cache() { return store; }
    MshrTable &mshr() { return table; }
    const MshrTable &mshr() const { return table; }

  private:
    Cache store;
    MshrTable table;
    int hitLatency;
};

} // namespace gsuite

#endif // GSUITE_SIMGPU_MEMLEVEL_HPP
