#include "simgpu/MemLevel.hpp"

#include <algorithm>
#include <cstddef>

#include "util/Logging.hpp"

namespace gsuite {

// --- MshrTable --------------------------------------------------------

void
MshrTable::configure(const MshrConfig &c)
{
    cfg = c;
    entries.assign(static_cast<size_t>(cfg.entries), Entry{});
    entryLine.assign(entries.size(), kNoLine);
    lineBucket.assign(kLineBuckets, 0);
    treeLeaves = 1;
    while (treeLeaves < entries.size())
        treeLeaves *= 2;
    known.reserve(entries.size());
    reset();
}

void
MshrTable::reset()
{
    for (Entry &e : entries)
        e = Entry{};
    std::fill(entryLine.begin(), entryLine.end(), kNoLine);
    std::fill(lineBucket.begin(), lineBucket.end(), 0u);
    pending = 0;
    known.clear();
    freeTree.assign(2 * treeLeaves, kPendingRelease);
    for (size_t i = 0; i < entries.size(); ++i)
        setFreeFrom(static_cast<int>(i), 0);
}

void
MshrTable::setFreeFrom(int entry, uint64_t cycle)
{
    size_t node = treeLeaves + static_cast<size_t>(entry);
    freeTree[node] = cycle;
    for (node /= 2; node > 0; node /= 2)
        freeTree[node] =
            std::min(freeTree[2 * node], freeTree[2 * node + 1]);
}

int
MshrTable::lowestFreeAt(uint64_t at) const
{
    if (freeTree[1] > at)
        return -1;
    size_t node = 1;
    while (node < treeLeaves)
        node = freeTree[2 * node] <= at ? 2 * node : 2 * node + 1;
    return static_cast<int>(node - treeLeaves);
}

size_t
MshrTable::busyKnownAfter(uint64_t cycle) const
{
    return static_cast<size_t>(
        known.end() -
        std::upper_bound(known.begin(), known.end(), cycle));
}

void
MshrTable::addKnown(uint64_t cycle)
{
    known.insert(std::upper_bound(known.begin(), known.end(), cycle),
                 cycle);
}

void
MshrTable::dropKnown(uint64_t cycle)
{
    known.erase(std::lower_bound(known.begin(), known.end(), cycle));
}

bool
MshrTable::ready(uint64_t cycle) const
{
    const size_t limit = static_cast<size_t>(cfg.hitUnderMiss);
    const size_t busy_pending = static_cast<size_t>(pending);
    if (busy_pending + known.size() < limit)
        return true;
    return busy_pending + busyKnownAfter(cycle) < limit;
}

uint64_t
MshrTable::nextRelease(uint64_t cycle) const
{
    if (pending > 0)
        return kPendingRelease; // unknown: re-poll once it resolves
    const auto it =
        std::upper_bound(known.begin(), known.end(), cycle);
    return it == known.end() ? 0 : *it;
}

int
MshrTable::acquire(uint64_t line, uint64_t &at)
{
    // Merge: a busy same-line entry under the merge cap absorbs the
    // access without consuming a new entry (the sector still travels
    // to the next level — sectored caches fetch per sector — but the
    // table tracks one miss for the whole line). The merged miss is
    // now the entry's latest in-flight fill, so its release reverts
    // to pending — extending a known releaseAt later instead would
    // flip the entry back to busy retroactively, i.e. the table
    // could go ready -> full without an acquire, which the issue
    // logic is allowed to assume never happens.
    const size_t n =
        lineBucket[line % kLineBuckets] > 0 ? entryLine.size() : 0;
    for (size_t k = 0; k < n; ++k) {
        if (entryLine[k] != line)
            continue;
        const int i = static_cast<int>(k);
        Entry &e = entries[k];
        if (e.releaseAt <= at || e.merges >= cfg.maxMerges)
            continue;
        ++e.merges;
        if (e.releaseAt != kPendingRelease) {
            dropKnown(e.releaseAt);
            e.releaseAt = kPendingRelease;
            ++pending;
            setFreeFrom(i, kPendingRelease);
        }
        return i;
    }

    int free = lowestFreeAt(at);
    if (free < 0) {
        // Full: wait for the earliest known release, which is the
        // tree minimum once no release is pending, then retake.
        if (pending > 0)
            return -1; // nothing releases at a known cycle yet
        at = freeTree[1];
        free = lowestFreeAt(at);
    }
    Entry &e = entries[static_cast<size_t>(free)];
    uint64_t &held = entryLine[static_cast<size_t>(free)];
    if (e.used) {
        dropKnown(e.releaseAt); // free, so its release was known
        --lineBucket[held % kLineBuckets];
    }
    held = line;
    ++lineBucket[line % kLineBuckets];
    e.releaseAt = kPendingRelease;
    e.merges = 1;
    e.used = true;
    ++pending;
    setFreeFrom(free, kPendingRelease);
    return free;
}

void
MshrTable::release(int entry, uint64_t release_at)
{
    panicIf(entry < 0 ||
                entry >= static_cast<int>(entries.size()),
            "MSHR release out of range");
    Entry &e = entries[static_cast<size_t>(entry)];
    panicIf(!e.used, "MSHR release of an unclaimed entry");
    if (e.releaseAt == kPendingRelease) {
        --pending;
    } else {
        if (release_at <= e.releaseAt)
            return;
        dropKnown(e.releaseAt);
    }
    e.releaseAt = release_at;
    addKnown(release_at);
    setFreeFrom(entry, release_at);
}

// --- DramChannel ------------------------------------------------------

DramChannel::DramChannel(const DramConfig &dram, int dram_latency,
                         double cycles_per_sector)
    : cfg(dram), dramLatency(dram_latency),
      cyclesPerSector(cycles_per_sector),
      banks(static_cast<size_t>(dram.numBanks))
{
}

int
DramChannel::bankOf(uint64_t addr) const
{
    return static_cast<int>(
        (addr / static_cast<uint64_t>(cfg.rowBytes)) &
        static_cast<uint64_t>(cfg.numBanks - 1));
}

uint64_t
DramChannel::rowOf(uint64_t addr) const
{
    return addr / static_cast<uint64_t>(cfg.rowBytes) /
           static_cast<uint64_t>(cfg.numBanks);
}

void
DramChannel::beginCycle()
{
    // Tickets live for one cycle: everything admitted after this is
    // serviced and redeemed before the next beginCycle().
    panicIf(!queue.empty(), "DRAM queue not drained last cycle");
    results.clear();
}

bool
DramChannel::canAccept(uint64_t) const
{
    return static_cast<int>(queue.size()) < cfg.schedQueueSize;
}

int
DramChannel::request(uint64_t addr, uint64_t at)
{
    if (!canAccept(at))
        return -1;
    const int ticket = static_cast<int>(results.size());
    queue.push_back({addr, at, ticket});
    results.push_back({});
    peak = std::max(peak, static_cast<uint64_t>(queue.size()));
    return ticket;
}

void
DramChannel::serve(const Request &r)
{
    Bank &b = banks[static_cast<size_t>(bankOf(r.addr))];
    const uint64_t row = rowOf(r.addr);

    // The shared data bus carries the slice's bandwidth share; the
    // bank must also have finished its previous column command.
    const double bus_at =
        std::max(static_cast<double>(r.at), busNextFree);
    const uint64_t cmd =
        std::max(static_cast<uint64_t>(bus_at), b.readyAt);

    bool row_hit = false;
    uint64_t issue;
    if (b.open && b.openRow == row) {
        row_hit = true;
        issue = cmd; // open-row hit: straight to the column command
    } else if (!b.open) {
        // Closed bank: activate, then the column command after tRCD.
        b.activateAt = cmd;
        issue = cmd + static_cast<uint64_t>(cfg.tRcd);
    } else {
        // Row conflict: precharge (respecting tRAS since the last
        // activate), re-activate, then the column command.
        const uint64_t pre = std::max(
            cmd, b.activateAt + static_cast<uint64_t>(cfg.tRas));
        b.activateAt = pre + static_cast<uint64_t>(cfg.tRp);
        issue = b.activateAt + static_cast<uint64_t>(cfg.tRcd);
    }
    b.open = true;
    b.openRow = row;
    b.readyAt = issue + static_cast<uint64_t>(cfg.tCcd);

    busNextFree = std::max(busNextFree,
                           static_cast<double>(issue)) +
                  cyclesPerSector;
    busy += cyclesPerSector;

    results[static_cast<size_t>(r.ticket)] = {
        issue + static_cast<uint64_t>(dramLatency), row_hit};
}

void
DramChannel::service()
{
    while (!queue.empty()) {
        size_t pick = 0;
        if (cfg.scheduler == DramSchedPolicy::Frfcfs) {
            // First-ready: the oldest request whose bank still has
            // its row open; else strictly the oldest. Queue order is
            // admission order, which MemorySystem fixes to
            // (SM index, sector index) — deterministic.
            for (size_t i = 0; i < queue.size(); ++i) {
                const Bank &b =
                    banks[static_cast<size_t>(bankOf(queue[i].addr))];
                if (b.open && b.openRow == rowOf(queue[i].addr)) {
                    pick = i;
                    break;
                }
            }
        }
        const Request r = queue[pick];
        queue.erase(queue.begin() +
                    static_cast<ptrdiff_t>(pick));
        serve(r);
    }
}

uint64_t
DramChannel::readyOf(int ticket) const
{
    panicIf(ticket < 0 ||
                ticket >= static_cast<int>(results.size()),
            "DRAM ticket out of range");
    return results[static_cast<size_t>(ticket)].ready;
}

bool
DramChannel::rowHitOf(int ticket) const
{
    panicIf(ticket < 0 ||
                ticket >= static_cast<int>(results.size()),
            "DRAM ticket out of range");
    return results[static_cast<size_t>(ticket)].rowHit;
}

void
DramChannel::reset()
{
    for (Bank &b : banks)
        b = Bank{};
    queue.clear();
    results.clear();
    busNextFree = 0.0;
    busy = 0.0;
    peak = 0;
}

// --- CacheLevel -------------------------------------------------------

CacheLevel::CacheLevel(const CacheGeometry &geometry,
                       const MshrConfig &mshr_cfg, int hit_latency)
    : store(geometry), hitLatency(hit_latency)
{
    table.configure(mshr_cfg);
}

CacheLevel::Outcome
CacheLevel::serviceSector(uint64_t addr, uint64_t issue_at)
{
    Outcome out;
    const CacheProbe p = store.probe(addr, issue_at);
    if (p.hit) {
        out.kind = Outcome::Kind::Hit;
        out.ready = std::max(
            issue_at + static_cast<uint64_t>(hitLatency), p.ready);
        return out;
    }

    panicIf(!next_, "cache-level miss with no next level chained");
    if (!next_->canAccept(issue_at))
        return out; // Rejected: bounded queue full, retry next cycle

    const uint64_t line = store.lineOf(addr);
    uint64_t at = issue_at;
    const int entry = table.acquire(line, at);
    if (entry < 0)
        return out; // Rejected: every MSHR busy, release unknown

    const int ticket = next_->request(addr, at);
    panicIf(ticket < 0, "next level refused after canAccept");
    out.kind = Outcome::Kind::Forwarded;
    out.ticket = ticket;
    out.mshrEntry = entry;
    return out;
}

void
CacheLevel::completeFill(uint64_t addr, uint64_t issue_at,
                         uint64_t ready, int mshr_entry)
{
    store.fill(addr, issue_at, ready);
    if (mshr_entry >= 0)
        table.release(mshr_entry, ready);
}

void
CacheLevel::reset()
{
    store.flush();
    table.reset();
}

} // namespace gsuite
