/**
 * @file
 * Sectored set-associative cache model (GPGPU-Sim style).
 *
 * Lines are 128 B with 32 B sectors and per-sector valid bits; misses
 * install the sector with a "ready" cycle so later accesses that
 * arrive before the fill completes behave like MSHR merges (they hit,
 * but observe the remaining fill latency).
 *
 * Layout: tags, LRU stamps, sector-valid masks and sector ready
 * cycles live in separate flat arrays indexed set-major, so a lookup
 * scans one set's contiguous tags; address decomposition uses
 * precomputed shifts and masks. Nothing allocates after construction.
 */

#ifndef GSUITE_SIMGPU_CACHE_HPP
#define GSUITE_SIMGPU_CACHE_HPP

#include <cstdint>
#include <vector>

#include "simgpu/GpuConfig.hpp"

namespace gsuite {

/** Result of a cache probe. */
struct CacheProbe {
    bool hit = false;
    uint64_t ready = 0; ///< cycle at which the sector's data is valid
};

/**
 * One level of sectored, LRU, set-associative cache.
 *
 * Victim rule (fill of a non-resident line): the first invalid way at
 * index >= 1, else the first way with the minimum lastUse.
 *
 * Set index: the line number masked with (numSets - 1); the tag is the
 * line number divided by numSets. For a non-power-of-two set count the
 * two disagree — the mask folds line numbers onto a subset of the sets
 * and two distinct lines can share a (set, tag) pair and alias. The
 * profiler's default 6 MB / 16-way L2 (3072 sets) is such a cache: line
 * 1024 hits on line 0. That arithmetic is kept on purpose so profiled
 * counts stay byte-identical until the fix lands together with a
 * refresh of the benchmark's expected records (ROADMAP item 5(b)).
 * Simulator geometries are validated powers of two and never alias.
 */
class Cache
{
  public:
    explicit Cache(const CacheGeometry &geometry);

    /**
     * Look up the sector containing @p addr at time @p now. On a hit
     * the LRU state is updated; on a miss nothing changes (the caller
     * decides whether to fill).
     */
    CacheProbe probe(uint64_t addr, uint64_t now);

    /**
     * probe(@p addr, @p now); on a miss with @p fill_on_miss, then
     * fill(@p addr, @p now, @p now) — reusing the probe's set scan
     * instead of scanning again. Returns whether the probe hit.
     */
    bool access(uint64_t addr, uint64_t now, bool fill_on_miss);

    /**
     * Install the sector containing @p addr, with its data becoming
     * valid at @p ready. Evicts the set's LRU line when the line is
     * not already resident.
     */
    void fill(uint64_t addr, uint64_t now, uint64_t ready);

    /**
     * Invalidate everything (between kernel launches). Costs in
     * proportion to the sets filled since the last flush, not to the
     * capacity.
     */
    void flush();

    const CacheGeometry &geometry() const { return geo; }

    /** Line number of @p addr (addr / lineBytes). */
    uint64_t lineOf(uint64_t addr) const
    {
        return lineShift >= 0
                   ? addr >> lineShift
                   : addr / static_cast<uint64_t>(geo.lineBytes);
    }

  private:
    static constexpr uint64_t kInvalidTag = ~uint64_t{0};
    static constexpr int kMaxSectors = 8;

    CacheGeometry geo;
    int numSets;
    int assoc;
    int sectorsPerLine;
    /** log2 of lineBytes / sectorBytes / numSets, or -1 when the value
     *  is not a power of two (division then). */
    int lineShift;
    int sectorShift;
    int setShift;

    // Per-way state, index set * assoc + way.
    std::vector<uint64_t> tags;
    std::vector<uint64_t> lastUse;
    std::vector<uint32_t> sectorValid;
    /** Sector ready cycles, index (set * assoc + way) * sectorsPerLine. */
    std::vector<uint64_t> sectorReady;

    /** Sets holding a valid way since the last flush. */
    std::vector<uint32_t> touchedSets;
    std::vector<uint8_t> setTouched;

    int sectorOf(uint64_t addr) const;
    size_t setOf(uint64_t line) const;
    uint64_t tagOf(uint64_t line) const;
    /** Way of @p set holding @p tag, or -1. */
    int findWay(size_t set, uint64_t tag) const;
    /** The victim rule's way in @p set. */
    int victimWay(size_t set) const;
    /** fill() once the set scan is done (@p way -1: not resident). */
    void install(size_t set, int way, uint64_t tag, int sector,
                 uint64_t now, uint64_t ready);
};

} // namespace gsuite

#endif // GSUITE_SIMGPU_CACHE_HPP
