#include "simgpu/Cache.hpp"

#include "util/Logging.hpp"

namespace gsuite {

Cache::Cache(const CacheGeometry &geometry)
    : geo(geometry), numSets(geometry.numSets()),
      assoc(geometry.assoc), sectorsPerLine(geometry.sectorsPerLine()),
      lineShift(exactLog2(static_cast<uint64_t>(geometry.lineBytes))),
      sectorShift(exactLog2(static_cast<uint64_t>(geometry.sectorBytes))),
      setShift(exactLog2(static_cast<uint64_t>(numSets)))
{
    panicIf(sectorsPerLine > kMaxSectors,
            "cache line has more sectors than the model supports");
    const size_t ways =
        static_cast<size_t>(numSets) * static_cast<size_t>(assoc);
    tags.assign(ways, kInvalidTag);
    lastUse.assign(ways, 0);
    sectorValid.assign(ways, 0);
    sectorReady.assign(ways * static_cast<size_t>(sectorsPerLine), 0);
    setTouched.assign(static_cast<size_t>(numSets), 0);
    touchedSets.reserve(static_cast<size_t>(numSets));
}

int
Cache::sectorOf(uint64_t addr) const
{
    const uint64_t offset =
        lineShift >= 0
            ? addr & (static_cast<uint64_t>(geo.lineBytes) - 1)
            : addr % static_cast<uint64_t>(geo.lineBytes);
    return static_cast<int>(
        sectorShift >= 0
            ? offset >> sectorShift
            : offset / static_cast<uint64_t>(geo.sectorBytes));
}

size_t
Cache::setOf(uint64_t line) const
{
    // Masks even when numSets is not a power of two (see the class
    // comment): kept byte-for-byte until ROADMAP item 5(b).
    return static_cast<size_t>(line &
                               static_cast<uint64_t>(numSets - 1));
}

uint64_t
Cache::tagOf(uint64_t line) const
{
    return setShift >= 0 ? line >> setShift
                         : line / static_cast<uint64_t>(numSets);
}

int
Cache::findWay(size_t set, uint64_t tag) const
{
    const uint64_t *t = tags.data() + set * static_cast<size_t>(assoc);
    for (int w = 0; w < assoc; ++w) {
        if (t[w] == tag)
            return w;
    }
    return -1;
}

int
Cache::victimWay(size_t set) const
{
    const size_t base = set * static_cast<size_t>(assoc);
    const uint64_t *t = tags.data() + base;
    const uint64_t *use = lastUse.data() + base;
    int victim = 0;
    for (int w = 1; w < assoc; ++w) {
        if (t[w] == kInvalidTag)
            return w;
        if (use[w] < use[victim])
            victim = w;
    }
    return victim;
}

void
Cache::install(size_t set, int way, uint64_t tag, int sector,
               uint64_t now, uint64_t ready)
{
    if (way < 0) {
        way = victimWay(set);
        const size_t i = set * static_cast<size_t>(assoc) +
                         static_cast<size_t>(way);
        tags[i] = tag;
        sectorValid[i] = 0;
        if (!setTouched[set]) {
            setTouched[set] = 1;
            touchedSets.push_back(static_cast<uint32_t>(set));
        }
    }
    const size_t i =
        set * static_cast<size_t>(assoc) + static_cast<size_t>(way);
    sectorValid[i] |= 1u << sector;
    sectorReady[i * static_cast<size_t>(sectorsPerLine) +
                static_cast<size_t>(sector)] = ready;
    lastUse[i] = now;
}

CacheProbe
Cache::probe(uint64_t addr, uint64_t now)
{
    const uint64_t line = lineOf(addr);
    const size_t set = setOf(line);
    const int way = findWay(set, tagOf(line));
    if (way < 0)
        return {};
    const size_t i =
        set * static_cast<size_t>(assoc) + static_cast<size_t>(way);
    const int sector = sectorOf(addr);
    if (!(sectorValid[i] & (1u << sector)))
        return {};
    lastUse[i] = now;
    return {true, sectorReady[i * static_cast<size_t>(sectorsPerLine) +
                              static_cast<size_t>(sector)]};
}

bool
Cache::access(uint64_t addr, uint64_t now, bool fill_on_miss)
{
    const uint64_t line = lineOf(addr);
    const size_t set = setOf(line);
    const uint64_t tag = tagOf(line);
    const int way = findWay(set, tag);
    const int sector = sectorOf(addr);
    if (way >= 0) {
        const size_t i =
            set * static_cast<size_t>(assoc) + static_cast<size_t>(way);
        if (sectorValid[i] & (1u << sector)) {
            lastUse[i] = now;
            return true;
        }
    }
    if (fill_on_miss)
        install(set, way, tag, sector, now, now);
    return false;
}

void
Cache::fill(uint64_t addr, uint64_t now, uint64_t ready)
{
    const uint64_t line = lineOf(addr);
    const size_t set = setOf(line);
    const uint64_t tag = tagOf(line);
    install(set, findWay(set, tag), tag, sectorOf(addr), now, ready);
}

void
Cache::flush()
{
    // Only touched sets hold a valid way. An invalid way's sector
    // ready cycles are never read (its valid mask is 0), so they are
    // left as they are.
    for (const uint32_t set : touchedSets) {
        const size_t base =
            static_cast<size_t>(set) * static_cast<size_t>(assoc);
        for (int w = 0; w < assoc; ++w) {
            tags[base + static_cast<size_t>(w)] = kInvalidTag;
            lastUse[base + static_cast<size_t>(w)] = 0;
            sectorValid[base + static_cast<size_t>(w)] = 0;
        }
        setTouched[set] = 0;
    }
    touchedSets.clear();
}

} // namespace gsuite
