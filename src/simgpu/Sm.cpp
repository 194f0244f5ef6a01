#include "simgpu/Sm.hpp"

#include <algorithm>
#include <bit>

#include "util/Logging.hpp"

namespace gsuite {

namespace {

constexpr uint64_t kNoEvent = ~uint64_t{0};

} // namespace

Sm::Sm(const GpuConfig &cfg, int sm_id, MemorySystem &mem)
    : cfg(cfg), smId(sm_id), mem(mem), l1Mshr(mem.l1Mshr(sm_id)),
      warps(static_cast<size_t>(cfg.maxWarpsPerSm)),
      cls(static_cast<size_t>(cfg.maxWarpsPerSm)),
      aluFree(static_cast<size_t>(cfg.numSchedulers), 0),
      greedyWarp(static_cast<size_t>(cfg.numSchedulers), -1),
      rrCursor(static_cast<size_t>(cfg.numSchedulers), 0),
      slotActive(static_cast<size_t>(cfg.maxWarpsPerSm), 0),
      slotReason(static_cast<size_t>(cfg.maxWarpsPerSm), 0),
      slotUnblock(static_cast<size_t>(cfg.maxWarpsPerSm), 0),
      slotExpiry(static_cast<size_t>(cfg.maxWarpsPerSm), kNoEvent),
      slotIsMem(static_cast<size_t>(cfg.maxWarpsPerSm), 0),
      slotNeedsAlu(static_cast<size_t>(cfg.maxWarpsPerSm), 0),
      slotLanes(static_cast<size_t>(cfg.maxWarpsPerSm), 0),
      ageOrder(static_cast<size_t>(cfg.numSchedulers)),
      slotRank(static_cast<size_t>(cfg.maxWarpsPerSm), 0),
      rankWords((cfg.maxWarpsPerSm / cfg.numSchedulers + 63) / 64),
      readyBits(static_cast<size_t>(3 * cfg.numSchedulers * rankWords),
                0),
      slotReadyKind(static_cast<size_t>(cfg.maxWarpsPerSm), -1),
      slotWords((cfg.maxWarpsPerSm + 63) / 64),
      wheel(kWheel * static_cast<size_t>(slotWords), 0),
      dueNow(static_cast<size_t>(slotWords), 0),
      farSlots(static_cast<size_t>(slotWords), 0),
      dueScratch(static_cast<size_t>(slotWords), 0)
{
    for (auto &order : ageOrder)
        order.reserve(static_cast<size_t>(cfg.maxWarpsPerSm /
                                          cfg.numSchedulers));
}

void
Sm::beginLaunch(const KernelLaunch *new_launch, KernelStats *new_stats,
                size_t chunk_instrs, bool idle_skip,
                std::vector<CtaSampleRecord> *sample_records)
{
    launch = new_launch;
    stats = new_stats;
    chunkBudget = std::max<size_t>(1, chunk_instrs);
    idleSkip = idle_skip;
    sampleRecords = sample_records;
    for (auto &w : warps) {
        w.active = false;
        w.done = false;
        w.waitingBarrier = false;
        w.chunk.clear();
        w.stream = nullptr;
        w.streamDone = false;
        w.regCursor = 0;
        w.pc = 0;
        w.regReady.fill(0);
        w.regFromMem.reset();
        w.fetchReady = 0;
        w.atomicDrain = 0;
        w.cta = -1;
        w.chunkBytes = 0;
    }
    std::fill(aluFree.begin(), aluFree.end(), uint64_t{0});
    std::fill(greedyWarp.begin(), greedyWarp.end(), -1);
    std::fill(rrCursor.begin(), rrCursor.end(), 0);
    std::fill(slotActive.begin(), slotActive.end(), uint8_t{0});
    std::fill(slotReason.begin(), slotReason.end(),
              static_cast<uint8_t>(StallReason::NotSelected));
    std::fill(slotUnblock.begin(), slotUnblock.end(), uint64_t{0});
    std::fill(slotExpiry.begin(), slotExpiry.end(), kNoEvent);
    std::fill(slotIsMem.begin(), slotIsMem.end(), uint8_t{0});
    std::fill(slotNeedsAlu.begin(), slotNeedsAlu.end(), uint8_t{0});
    std::fill(slotLanes.begin(), slotLanes.end(), uint8_t{0});
    for (auto &order : ageOrder)
        order.clear();
    std::fill(readyBits.begin(), readyBits.end(), uint64_t{0});
    std::fill(slotReadyKind.begin(), slotReadyKind.end(), int8_t{-1});
    std::fill(wheel.begin(), wheel.end(), uint64_t{0});
    std::fill(dueNow.begin(), dueNow.end(), uint64_t{0});
    std::fill(farSlots.begin(), farSlots.end(), uint64_t{0});
    farMin = kNoEvent;
    lastSwept = 0;
    stallCount.fill(0);
    lsuFree = 0;
    residentWarps = 0;
    activeCtas = 0;
    lastStepEmpty = false;
    ageCounter = 0;
    parkedWarp = -1;
    idleUntil = 0;
    residentTraceBytes = 0;
    peakTraceBytes = 0;
    lastStall.fill(0);
    lastOcc.fill(0);

    const int warps_per_cta = launch->dims.warpsPerCta();
    panicIf(warps_per_cta <= 0, "launch with zero warps per CTA");
    panicIf(warps_per_cta > cfg.maxWarpsPerSm,
            "CTA needs more warps than an SM supports");
    maxResidentCtas = std::min(
        {cfg.maxCtasPerSm, cfg.maxWarpsPerSm / warps_per_cta,
         std::max(1, cfg.maxThreadsPerSm /
                         std::max(1, launch->dims.threadsPerCta))});
    ctas.assign(static_cast<size_t>(maxResidentCtas), CtaCtx{});
}

void
Sm::assignCta(int64_t cta_id, uint64_t cycle)
{
    CtaCtx *cta = nullptr;
    for (auto &c : ctas) {
        if (!c.active) {
            cta = &c;
            break;
        }
    }
    panicIf(!cta, "assignCta with no free CTA slot");

    const int warps_per_cta = launch->dims.warpsPerCta();
    ++activeCtas;
    cta->active = true;
    cta->ctaId = cta_id;
    cta->liveWarps = 0;
    cta->arrived = 0;
    cta->warpSlots.clear();
    cta->startCycle = cycle;
    cta->instrs = 0;

    for (int wi = 0; wi < warps_per_cta; ++wi) {
        int slot = -1;
        for (size_t i = 0; i < warps.size(); ++i) {
            if (!warps[i].active) {
                slot = static_cast<int>(i);
                break;
            }
        }
        panicIf(slot < 0, "no free warp slot for resident CTA");
        WarpCtx &w = warps[static_cast<size_t>(slot)];
        w.active = true;
        w.done = false;
        w.waitingBarrier = false;
        // The first chunk materializes lazily at the next step phase,
        // on this SM's owning worker — assignment stays cheap and
        // trace generation runs in parallel across SMs.
        w.chunk.clear();
        w.stream = launch->streamTrace(cta_id, wi);
        w.streamDone = false;
        w.regCursor = 0;
        w.pc = 0;
        w.regReady.fill(0);
        w.regFromMem.reset();
        w.fetchReady = cycle + static_cast<uint64_t>(
                                   cfg.icacheColdLatency);
        w.atomicDrain = 0;
        w.cta = static_cast<int>(cta - ctas.data());
        w.ageStamp = ageCounter++;
        w.chunkBytes = 0;
        slotActive[static_cast<size_t>(slot)] = 1;
        setExpiry(slot, 0); // classify at next step
        slotUnblock[static_cast<size_t>(slot)] = 0;
        // Slot (re)activation: enter the class count directly — the
        // stale reason of a previous occupant must not be debited.
        slotReason[static_cast<size_t>(slot)] =
            static_cast<uint8_t>(StallReason::NotSelected);
        ++stallCount[static_cast<size_t>(StallReason::NotSelected)];
        // The youngest warp so far: its rank goes last.
        auto &order =
            ageOrder[static_cast<size_t>(slot % cfg.numSchedulers)];
        slotRank[static_cast<size_t>(slot)] =
            static_cast<int>(order.size());
        order.push_back(slot);
        cta->warpSlots.push_back(slot);
        ++cta->liveWarps;
        ++residentWarps;
    }
    stats->warpsSimulated += warps_per_cta;
    idleUntil = 0; // new warps change the SM's classification
}

void
Sm::refillChunk(WarpCtx &w)
{
    panicIf(w.streamDone, "trace stream ran past its EXIT");
    residentTraceBytes -= w.chunkBytes;
    w.chunk.clear();
    TraceBuilder tb(w.chunk, chunkBudget, w.regCursor);
    w.streamDone = w.stream(tb);
    panicIf(w.chunk.instrs.empty(), "trace stream made no progress");
    panicIf(w.streamDone && w.chunk.instrs.back().op != Op::EXIT,
            "warp trace must end with EXIT");
    w.pc = 0;
    w.chunkBytes =
        w.chunk.instrs.size() * sizeof(SimInstr) +
        w.chunk.addrs.size() * sizeof(uint64_t);
    residentTraceBytes += w.chunkBytes;
    if (residentTraceBytes > peakTraceBytes) {
        peakTraceBytes = residentTraceBytes;
        stats->traceBytesPeak = peakTraceBytes;
    }
}

void
Sm::setExpiry(int slot, uint64_t at_cycle)
{
    slotExpiry[static_cast<size_t>(slot)] = at_cycle;
    if (at_cycle == kNoEvent)
        return;
    const size_t word = static_cast<size_t>(slot / 64);
    const uint64_t bit = uint64_t{1} << (slot % 64);
    if (at_cycle <= lastSwept) {
        dueNow[word] |= bit;
    } else if (at_cycle - lastSwept < kWheel) {
        wheel[(at_cycle % kWheel) * static_cast<size_t>(slotWords) +
              word] |= bit;
    } else {
        farSlots[word] |= bit;
        farMin = std::min(farMin, at_cycle);
    }
}

void
Sm::sweepExpired(uint64_t cycle)
{
    const size_t words = static_cast<size_t>(slotWords);
    uint64_t *due = dueScratch.data();
    for (size_t w = 0; w < words; ++w) {
        due[w] = dueNow[w];
        dueNow[w] = 0;
    }
    if (cycle > lastSwept) {
        // The buckets of cycles lastSwept+1 .. cycle (all of them
        // after a long skip window).
        const uint64_t span = std::min(cycle - lastSwept, kWheel);
        for (uint64_t c = cycle - span + 1; c <= cycle; ++c) {
            uint64_t *bucket = wheel.data() + (c % kWheel) * words;
            for (size_t w = 0; w < words; ++w) {
                due[w] |= bucket[w];
                bucket[w] = 0;
            }
        }
        lastSwept = cycle;
    }
    if (farMin <= cycle) {
        farMin = kNoEvent;
        for (size_t w = 0; w < words; ++w) {
            for (uint64_t m = farSlots[w]; m; m &= m - 1) {
                const int slot =
                    static_cast<int>(w * 64) + std::countr_zero(m);
                const uint64_t bit = uint64_t{1} << (slot % 64);
                const uint64_t e = slotExpiry[static_cast<size_t>(slot)];
                if (e == kNoEvent) {
                    farSlots[w] &= ~bit; // stale: no expiry now
                } else if (e <= cycle) {
                    farSlots[w] &= ~bit;
                    due[w] |= bit;
                } else {
                    farMin = std::min(farMin, e);
                }
            }
        }
    }
    // Slot order fixes the chunk-refill order, which the trace-
    // footprint peak sees. A bit whose slot has since moved its
    // expiry past this cycle is stale (its new expiry has its own
    // bit); a re-derived slot's expiry moves past the cycle, so a
    // duplicate bit no-ops too.
    for (size_t w = 0; w < words; ++w) {
        for (uint64_t m = due[w]; m; m &= m - 1) {
            const int slot = static_cast<int>(w * 64) + std::countr_zero(m);
            if (slotExpiry[static_cast<size_t>(slot)] <= cycle)
                reclassify(slot, cycle);
        }
    }
}

void
Sm::setReason(int slot, StallReason reason)
{
    const size_t i = static_cast<size_t>(slot);
    const uint8_t next = static_cast<uint8_t>(reason);
    if (slotReason[i] == next)
        return;
    --stallCount[slotReason[i]];
    slotReason[i] = next;
    ++stallCount[next];
}

void
Sm::markDirty(int slot, uint64_t at_cycle)
{
    if (slotExpiry[static_cast<size_t>(slot)] > at_cycle)
        setExpiry(slot, at_cycle);
}

void
Sm::readyInsert(int slot)
{
    const size_t i = static_cast<size_t>(slot);
    const int kind = slotNeedsAlu[i] ? kReadyAlu
                     : slotIsMem[i]  ? kReadyMem
                                     : kReadyOther;
    slotReadyKind[i] = static_cast<int8_t>(kind);
    const int rank = slotRank[i];
    readyMask(kind, slot % cfg.numSchedulers)[rank / 64] |=
        uint64_t{1} << (rank % 64);
}

void
Sm::readyRemove(int slot)
{
    const size_t i = static_cast<size_t>(slot);
    if (slotReadyKind[i] < 0)
        return;
    const int rank = slotRank[i];
    readyMask(slotReadyKind[i], slot % cfg.numSchedulers)[rank / 64] &=
        ~(uint64_t{1} << (rank % 64));
    slotReadyKind[i] = -1;
}

int
Sm::oldestReady(int kind, int sched) const
{
    const uint64_t *bits = readyBits.data() + readyIndex(kind, sched);
    for (int w = 0; w < rankWords; ++w) {
        if (bits[w])
            return w * 64 + std::countr_zero(bits[w]);
    }
    return kNoRank;
}

void
Sm::finalizeParkedMem()
{
    if (parkedWarp < 0)
        return;
    if (!mem.parkedComplete(smId))
        return; // slices still back-pressured: stay parked
    const uint64_t completion = mem.finishAccess(smId, *stats);
    WarpCtx &w = warps[static_cast<size_t>(parkedWarp)];
    switch (parkedKind) {
      case MemAccessKind::Load:
        w.regReady[parkedDst] = completion;
        w.regFromMem[parkedDst] = true;
        break;
      case MemAccessKind::Atomic:
        w.atomicDrain = std::max(w.atomicDrain, completion);
        break;
      case MemAccessKind::Store:
        break; // stores have no consumer-visible completion
    }
    markDirty(parkedWarp, 0); // completion can change the class now
    parkedWarp = -1;
}

void
Sm::drainParkedMem()
{
    panicIf(parkedWarp >= 0 && !mem.parkedComplete(smId),
            "drainParkedMem with unresolved sectors (the simulator "
            "must drain the slices first)");
    finalizeParkedMem();
}

Sm::Classification
Sm::classify(int slot, uint64_t cycle) const
{
    const WarpCtx &w = warps[static_cast<size_t>(slot)];
    if (w.waitingBarrier)
        return {StallReason::Synchronization, kNoEvent};
    if (w.fetchReady > cycle)
        return {StallReason::InstructionFetch, w.fetchReady};

    const SimInstr &in = w.chunk.instrs[w.pc];
    if (in.op == Op::EXIT && w.atomicDrain > cycle)
        return {StallReason::Synchronization, w.atomicDrain};
    // A warp whose store/atomic (or unconsumed load) is still parked
    // must not retire: finalizeParkedMem() writes into its slot, and
    // a freed slot could be re-assigned meanwhile.
    if (in.op == Op::EXIT && parkedWarp == slot)
        return {StallReason::Synchronization, kNoEvent};

    uint64_t dep_ready = 0;
    bool from_mem = false;
    const Reg regs[3] = {in.srcA, in.srcB, in.dst};
    for (Reg r : regs) {
        if (r == kNoReg)
            continue;
        const uint64_t ready = w.regReady[r];
        if (ready > cycle) {
            dep_ready = std::max(dep_ready, ready);
            from_mem |= w.regFromMem[r];
        }
    }
    if (dep_ready > cycle) {
        return {from_mem ? StallReason::MemoryDependency
                         : StallReason::ExecutionDependency,
                dep_ready};
    }
    if (isMemOp(in.op) && !l1Mshr.ready(cycle)) {
        // The L1 MSHR table is at its hit-under-miss limit: the LSU
        // cannot accept this memory instruction. The unblock event is
        // the earliest known entry release (kNoEvent while a release
        // is still in flight).
        return {StallReason::MshrFull, l1Mshr.nextRelease(cycle)};
    }
    return {StallReason::NotSelected, 0}; // ready to issue
}

/**
 * Re-derive the cached SoA classification of @p slot at @p cycle.
 *
 * Equivalent to classify(), plus the bookkeeping the fast path needs:
 * expired trace chunks refill here (slot-sweep order, matching the
 * reference pass), the decoded head is cached for hazard checks, the
 * expiry is set to the earliest cycle the cached class could read
 * differently (for dependency stalls that is the *earliest* blocking
 * register, because the memory/execution attribution can flip before
 * the stall clears), and ready-list membership is synced.
 */
void
Sm::reclassify(int slot, uint64_t cycle)
{
    WarpCtx &w = warps[static_cast<size_t>(slot)];
    if (w.pc >= w.chunk.instrs.size())
        refillChunk(w);
    ++stats->classifyEvals;

    const SimInstr &in = w.chunk.instrs[w.pc];
    StallReason reason;
    uint64_t unblock;
    uint64_t expiry;
    if (w.waitingBarrier) {
        reason = StallReason::Synchronization;
        unblock = kNoEvent;
        expiry = kNoEvent; // only a state change clears a barrier
    } else if (w.fetchReady > cycle) {
        reason = StallReason::InstructionFetch;
        unblock = w.fetchReady;
        expiry = w.fetchReady;
    } else if (in.op == Op::EXIT && w.atomicDrain > cycle) {
        reason = StallReason::Synchronization;
        unblock = w.atomicDrain;
        expiry = w.atomicDrain;
    } else if (in.op == Op::EXIT && parkedWarp == slot) {
        // Parked store/atomic (or unconsumed load) in flight: the
        // warp must stay resident until finalizeParkedMem(), which
        // marks this slot dirty. Re-check every cycle meanwhile (the
        // parked state pins the SM to real time anyway).
        reason = StallReason::Synchronization;
        unblock = kNoEvent;
        expiry = cycle + 1;
    } else {
        uint64_t dep_ready = 0;
        uint64_t dep_change = kNoEvent;
        bool from_mem = false;
        const Reg regs[3] = {in.srcA, in.srcB, in.dst};
        for (Reg r : regs) {
            if (r == kNoReg)
                continue;
            const uint64_t ready = w.regReady[r];
            if (ready > cycle) {
                dep_ready = std::max(dep_ready, ready);
                dep_change = std::min(dep_change, ready);
                from_mem |= w.regFromMem[r];
            }
        }
        if (dep_ready > cycle) {
            reason = from_mem ? StallReason::MemoryDependency
                              : StallReason::ExecutionDependency;
            unblock = dep_ready;
            expiry = dep_change;
        } else {
            // Ready to issue. A memory head is MSHR-gated:
            // stepCycleFast() reads it as MshrFull on every cycle the
            // L1 MSHR table is full, without re-deriving it.
            reason = StallReason::NotSelected;
            unblock = 0;
            expiry = kNoEvent; // ready until issued or mutated
        }
    }

    const size_t i = static_cast<size_t>(slot);
    setReason(slot, reason);
    slotUnblock[i] = unblock;
    setExpiry(slot, expiry);
    slotIsMem[i] = isMemOp(in.op) ? 1 : 0;
    slotNeedsAlu[i] = (in.op == Op::FP32 || in.op == Op::INT ||
                       in.op == Op::SFU)
                          ? 1
                          : 0;
    slotLanes[i] = static_cast<uint8_t>(in.activeLanes());

    if (reason == StallReason::NotSelected) {
        if (slotReadyKind[i] < 0)
            readyInsert(slot);
    } else {
        readyRemove(slot);
    }
}

void
Sm::releaseBarrierIfComplete(CtaCtx &cta, uint64_t cycle)
{
    if (cta.liveWarps == 0 || cta.arrived < cta.liveWarps)
        return;
    for (int slot : cta.warpSlots) {
        WarpCtx &w = warps[static_cast<size_t>(slot)];
        if (w.active && !w.done && w.waitingBarrier) {
            w.waitingBarrier = false;
            w.fetchReady = cycle + 1;
            markDirty(slot, cycle + 1);
        }
    }
    cta.arrived = 0;
}

void
Sm::finishWarp(int slot, uint64_t cycle)
{
    WarpCtx &w = warps[static_cast<size_t>(slot)];
    w.done = true;
    w.active = false;
    w.stream = nullptr;
    residentTraceBytes -= w.chunkBytes;
    w.chunkBytes = 0;
    slotActive[static_cast<size_t>(slot)] = 0;
    slotExpiry[static_cast<size_t>(slot)] = kNoEvent;
    --stallCount[slotReason[static_cast<size_t>(slot)]];
    readyRemove(slot);
    // Drop the slot's rank: later ranks, and their mask bits, shift
    // down by one.
    const int sched = slot % cfg.numSchedulers;
    auto &order = ageOrder[static_cast<size_t>(sched)];
    const int rank = slotRank[static_cast<size_t>(slot)];
    order.erase(order.begin() + rank);
    for (size_t r = static_cast<size_t>(rank); r < order.size(); ++r)
        slotRank[static_cast<size_t>(order[r])] = static_cast<int>(r);
    for (int kind = 0; kind < 3; ++kind) {
        uint64_t *bits = readyMask(kind, sched);
        const int w0 = rank / 64;
        const int b = rank % 64;
        const uint64_t low = bits[w0] & ((uint64_t{1} << b) - 1);
        const uint64_t high =
            b == 63 ? 0 : (bits[w0] >> (b + 1)) << b;
        bits[w0] = low | high;
        for (int w = w0 + 1; w < rankWords; ++w) {
            bits[w - 1] |= (bits[w] & 1) << 63;
            bits[w] >>= 1;
        }
    }
    --residentWarps;
    CtaCtx &cta = ctas[static_cast<size_t>(w.cta)];
    --cta.liveWarps;
    if (cta.liveWarps == 0) {
        cta.active = false;
        --activeCtas;
        if (sampleRecords)
            sampleRecords->push_back(
                {cta.ctaId, cta.startCycle, cycle, cta.instrs});
    } else {
        releaseBarrierIfComplete(cta, cycle);
    }
}

OccBucket
Sm::bucketForLanes(int lanes) const
{
    if (lanes <= 8)
        return OccBucket::W8;
    if (lanes <= 20)
        return OccBucket::W20;
    return OccBucket::W32;
}

void
Sm::issueInstr(int slot, uint64_t cycle, int sched)
{
    WarpCtx &w = warps[static_cast<size_t>(slot)];
    const SimInstr &in = w.chunk.instrs[w.pc];

    stats->instrByClass[static_cast<size_t>(instrClassOf(in.op))] += 1;
    stats->warpInstrs += 1;
    stats->threadInstrs += static_cast<uint64_t>(in.activeLanes());
    if (sampleRecords)
        ctas[static_cast<size_t>(w.cta)].instrs += 1;

    // Default: the next instruction is fetchable next cycle.
    w.fetchReady = cycle + static_cast<uint64_t>(cfg.ifetchLatency);

    switch (in.op) {
      case Op::FP32:
      case Op::INT: {
        w.regReady[in.dst] =
            cycle + static_cast<uint64_t>(cfg.aluLatency);
        w.regFromMem[in.dst] = false;
        const uint64_t ii =
            static_cast<uint64_t>(cfg.aluInitiationInterval);
        aluFree[static_cast<size_t>(sched)] = cycle + ii;
        stats->aluBusyCycles += ii;
        break;
      }
      case Op::SFU: {
        w.regReady[in.dst] =
            cycle + static_cast<uint64_t>(cfg.sfuLatency);
        w.regFromMem[in.dst] = false;
        const uint64_t ii = 8;
        aluFree[static_cast<size_t>(sched)] = cycle + ii;
        stats->aluBusyCycles += ii;
        break;
      }
      case Op::CTRL:
        // Branch redirect: the front end needs a few cycles.
        w.fetchReady = cycle + 1 + 4;
        break;
      case Op::LDS:
        w.regReady[in.dst] =
            cycle + static_cast<uint64_t>(cfg.ldsLatency);
        w.regFromMem[in.dst] = false;
        lsuFree = cycle + 1;
        break;
      case Op::STS:
        lsuFree = cycle + 1;
        break;
      case Op::LDG: {
        MemAccessResult res;
        const bool done_now =
            mem.beginAccess(smId, cycle, w.chunk.addrsOf(in),
                            MemAccessKind::Load, *stats, res);
        if (done_now) {
            w.regReady[in.dst] = res.completion;
            w.regFromMem[in.dst] = true;
        } else {
            // Completion lands at a later step, once the slices
            // resolve every sector. Until then the destination is
            // "ready at an unknown cycle": consumers classify as
            // MemoryDependency instead of reading a stale 0.
            parkedWarp = slot;
            parkedDst = in.dst;
            parkedKind = MemAccessKind::Load;
            w.regReady[in.dst] = kNoEvent;
            w.regFromMem[in.dst] = true;
        }
        lsuFree = cycle + static_cast<uint64_t>(res.lsuCycles);
        break;
      }
      case Op::STG: {
        MemAccessResult res;
        const bool done_now =
            mem.beginAccess(smId, cycle, w.chunk.addrsOf(in),
                            MemAccessKind::Store, *stats, res);
        if (!done_now) {
            parkedWarp = slot;
            parkedDst = kNoReg;
            parkedKind = MemAccessKind::Store;
        }
        lsuFree = cycle + static_cast<uint64_t>(res.lsuCycles);
        break;
      }
      case Op::ATOM: {
        MemAccessResult res;
        const bool done_now =
            mem.beginAccess(smId, cycle, w.chunk.addrsOf(in),
                            MemAccessKind::Atomic, *stats, res);
        if (done_now) {
            w.atomicDrain = std::max(w.atomicDrain, res.completion);
        } else {
            parkedWarp = slot;
            parkedDst = kNoReg;
            parkedKind = MemAccessKind::Atomic;
        }
        lsuFree = cycle + static_cast<uint64_t>(res.lsuCycles);
        break;
      }
      case Op::BAR: {
        CtaCtx &cta = ctas[static_cast<size_t>(w.cta)];
        w.waitingBarrier = true;
        ++cta.arrived;
        ++w.pc;
        releaseBarrierIfComplete(cta, cycle);
        return; // pc already advanced
      }
      case Op::EXIT:
        ++w.pc;
        finishWarp(slot, cycle);
        return;
    }
    ++w.pc;
}

bool
Sm::stepCycle(uint64_t cycle, uint64_t &next_event)
{
    // Fold last cycle's resolved memory access into warp state before
    // anything classifies against it.
    finalizeParkedMem();

    // A still-parked access pins the SM to real time: the slices must
    // run resolveSlice() every cycle until every sector resolves, so
    // neither the per-SM idle replay nor the simulator's global
    // fast-forward may jump past those service cycles.
    if (parkedWarp >= 0) {
        idleUntil = 0;
        next_event = std::min(next_event, cycle + 1);
    }

    lastStepEmpty = residentWarps == 0;
    if (residentWarps == 0) {
        // Nothing resident: schedulers idle.
        lastStall.fill(0);
        lastOcc.fill(0);
        lastOcc[static_cast<size_t>(OccBucket::Idle)] +=
            static_cast<uint64_t>(cfg.numSchedulers);
        stats->occCycles[static_cast<size_t>(OccBucket::Idle)] +=
            static_cast<uint64_t>(cfg.numSchedulers);
        stats->schedulerSlots +=
            static_cast<uint64_t>(cfg.numSchedulers);
        return false;
    }

    // Nothing can change before idleUntil: replay the last
    // classification instead of recomputing it (cycle skipping).
    if (idleUntil > cycle) {
        accountExtra(1);
        next_event = std::min(next_event, idleUntil);
        return false;
    }

    return cfg.referenceIssue ? stepCycleReference(cycle, next_event)
                              : stepCycleFast(cycle, next_event);
}

/**
 * SoA fast path. Three stages, mirroring the reference passes:
 *
 *  A. batched sweep in slot order re-deriving only the expired
 *     cached classifications (and refilling their trace chunks —
 *     slot order fixes the refill order the footprint peak sees);
 *  B. per-scheduler issue from the incrementally maintained
 *     per-port ready masks (GTO: sticky first, else the oldest
 *     free-port head; LRR: rotation over the scheduler's fixed
 *     slot positions);
 *  C. stall/occupancy accounting from the incremental class census,
 *     with the stall-clear event sweep deferred to no-issue cycles.
 *
 * Produces bit-identical statistics to stepCycleReference() (except
 * the classifyEvals diagnostic): same per-cycle classifications,
 * same issue order, same refill order, same merged events.
 */
bool
Sm::stepCycleFast(uint64_t cycle, uint64_t &next_event)
{
    lastOcc.fill(0);

    // Stage A: re-derive every expired classification, in slot-index
    // order.
    sweepExpired(cycle);

    // MSHR-gated warps — memory heads nothing else blocks, i.e. the
    // memory ready masks — are NotSelected or MshrFull by the L1 MSHR
    // table alone. One table read settles them all for the cycle:
    // the reference classifies every warp before any issue, so a full
    // table makes them MshrFull and never candidates.
    uint64_t mshr_gated = 0;
    for (const uint64_t *bits = readyMask(kReadyMem, 0),
                        *end = bits + cfg.numSchedulers * rankWords;
         bits != end; ++bits)
        mshr_gated += static_cast<uint64_t>(std::popcount(*bits));
    const bool mshr_full = mshr_gated > 0 && !l1Mshr.ready(cycle);

    bool issued_any = false;
    bool any_port_block = false;
    uint64_t min_event = kNoEvent;

    const int ns = cfg.numSchedulers;
    for (int s = 0; s < ns; ++s) {
        const size_t ss = static_cast<size_t>(s);
        bool issued = false;
        bool structural = false;
        // Port states are re-read per scheduler: an earlier
        // scheduler's issue this cycle can occupy the shared LSU.
        // A parked access holds the LSU beyond lsuFree — the memory
        // system accepts one in-flight access per SM.
        const bool lsu_busy = lsuFree > cycle || mem.hasParked(smId);
        const bool alu_busy = aluFree[ss] > cycle;

        auto do_issue = [&](int slot) {
            const size_t i = static_cast<size_t>(slot);
            const OccBucket b =
                bucketForLanes(static_cast<int>(slotLanes[i]));
            issueInstr(slot, cycle, s);
            // Count as Issued this cycle unless the warp just
            // finished (an issued EXIT leaves the stall attribution,
            // like the reference pass-3 skip of done warps);
            // re-derive next cycle (the post-issue head may also
            // need a chunk refill then).
            if (slotActive[i]) {
                setReason(slot, StallReason::Issued);
                setExpiry(slot, cycle + 1);
            }
            readyRemove(slot);
            issued = true;
            issued_any = true;
            lastOcc[static_cast<size_t>(b)] += 1;
        };

        /** A candidate the reference would attempt and reject. */
        auto blocked_attempt = [&](bool needs_alu) {
            structural = true;
            any_port_block = true;
            min_event = std::min(min_event,
                                 needs_alu ? aluFree[ss] : lsuFree);
        };

        if (cfg.scheduler == SchedulerPolicy::Gto) {
            // The reference attempts sticky first, then candidates
            // oldest-to-youngest, stopping at the first whose port
            // is free. With the ready masks segregated by port, that
            // first-issuable candidate is an O(1) head comparison,
            // and the candidates the reference would have attempted
            // and rejected before it are exactly the busy-port mask
            // heads that are older (hazard merges are idempotent per
            // port, so heads stand in for all attempted members).
            int pick = -1;
            const int sticky = greedyWarp[ss];
            if (sticky >= 0 &&
                slotReadyKind[static_cast<size_t>(sticky)] >= 0 &&
                !(mshr_full &&
                  slotIsMem[static_cast<size_t>(sticky)] != 0)) {
                const size_t i = static_cast<size_t>(sticky);
                const bool na = slotNeedsAlu[i] != 0;
                if ((na && alu_busy) ||
                    (slotIsMem[i] != 0 && lsu_busy))
                    blocked_attempt(na);
                else
                    pick = sticky; // sticky wins outright
            }
            if (pick < 0) {
                // Lower rank = older warp.
                const int ra = oldestReady(kReadyAlu, s);
                const int rm =
                    mshr_full ? kNoRank : oldestReady(kReadyMem, s);
                const int ro = oldestReady(kReadyOther, s);
                int pick_rank = kNoRank;
                if (!alu_busy && ra < pick_rank)
                    pick_rank = ra;
                if (!lsu_busy && rm < pick_rank)
                    pick_rank = rm;
                if (ro < pick_rank)
                    pick_rank = ro;
                if (pick_rank != kNoRank)
                    pick = ageOrder[ss][static_cast<size_t>(pick_rank)];
                // Blocked candidates older than the pick (all of
                // them when nothing is issuable) were attempted.
                if (alu_busy && ra < pick_rank)
                    blocked_attempt(true);
                if (lsu_busy && rm < pick_rank)
                    blocked_attempt(false);
            }
            if (pick >= 0) {
                do_issue(pick);
                greedyWarp[ss] = pick;
            }
        } else {
            // LRR: rotate over the scheduler's fixed slot positions,
            // attempting each ready candidate in rotation order.
            const int count = cfg.maxWarpsPerSm / ns;
            const int start =
                count > 0 ? rrCursor[ss] % count : 0;
            for (int k = 0; k < count; ++k) {
                const int slot = s + ((start + k) % count) * ns;
                const size_t i = static_cast<size_t>(slot);
                if (!slotActive[i])
                    continue;
                if (slotReason[i] !=
                        static_cast<uint8_t>(StallReason::NotSelected) ||
                    (mshr_full && slotIsMem[i] != 0))
                    continue;
                const bool na = slotNeedsAlu[i] != 0;
                if ((na && alu_busy) ||
                    (slotIsMem[i] != 0 && lsu_busy)) {
                    blocked_attempt(na);
                    continue;
                }
                do_issue(slot);
                rrCursor[ss] = (k + 1) % count;
                break;
            }
        }

        if (!issued) {
            const bool has_warp = !ageOrder[ss].empty();
            const OccBucket b = (structural && has_warp)
                                    ? OccBucket::Stall
                                    : OccBucket::Idle;
            lastOcc[static_cast<size_t>(b)] += 1;
        }
    }

    // Stage C: the Fig. 6 attribution is the incrementally
    // maintained per-class census (identical to a sweep over the
    // resident warps). The merged stall-clear event is only ever
    // consumed on no-issue cycles — the simulator ignores next_event
    // whenever any SM issued, and idleUntil requires no local issue —
    // and every such cycle opens a fast-forward window, so the
    // unblock sweep runs only then instead of maintaining a second
    // heap on every classification change.
    lastStall = stallCount;
    if (mshr_full) {
        // No gated warp issued (the memory lists were hidden), so the
        // pre-issue count still holds.
        lastStall[static_cast<size_t>(StallReason::NotSelected)] -=
            mshr_gated;
        lastStall[static_cast<size_t>(StallReason::MshrFull)] +=
            mshr_gated;
    }
    if (!issued_any) {
        const int nw = cfg.maxWarpsPerSm;
        for (int i = 0; i < nw; ++i) {
            const size_t si = static_cast<size_t>(i);
            if (!slotActive[si])
                continue;
            if (slotReason[si] ==
                static_cast<uint8_t>(StallReason::NotSelected))
                continue;
            const uint64_t ev = slotUnblock[si];
            if (ev > cycle && ev != kNoEvent)
                min_event = std::min(min_event, ev);
        }
        // Every MshrFull warp's unblock is the table's next release
        // (unknown while a release is pending).
        if (mshr_full) {
            const uint64_t ev = l1Mshr.nextRelease(cycle);
            if (ev > cycle && ev != kNoEvent)
                min_event = std::min(min_event, ev);
        }
        // The reference path overwrites a port-blocked candidate's
        // event with 1 ("retry next cycle"), which reaches the merge
        // only at cycle 0; mirror that exactly.
        if (any_port_block && cycle < 1)
            min_event = std::min<uint64_t>(min_event, 1);

        // With no issue and all events known, this SM is frozen
        // until the earliest of them: later steps replay this
        // cycle's accounting.
        // A parked access makes events unknowable (MSHR releases
        // and the completion are still being resolved by the
        // slices), and finalizeParkedMem() clears the parked state
        // before the per-step pin re-zeroes idleUntil — so a freeze
        // taken now could replay a stale classification straight
        // past the wakeups the completion establishes.
        if (idleSkip && parkedWarp < 0 && min_event != kNoEvent &&
            min_event > cycle + 1) {
            idleUntil = min_event;
        }
    }

    for (int r = 0; r < kNumStallReasons; ++r)
        stats->stallCycles[static_cast<size_t>(r)] +=
            lastStall[static_cast<size_t>(r)];
    for (int b = 0; b < kNumOccBuckets; ++b)
        stats->occCycles[static_cast<size_t>(b)] +=
            lastOcc[static_cast<size_t>(b)];
    stats->schedulerSlots += static_cast<uint64_t>(ns);

    next_event = std::min(next_event, min_event);
    return issued_any;
}

/**
 * Pre-SoA reference path (GpuConfig::referenceIssue): classify every
 * resident warp every cycle and rescan scheduler slots. Kept verbatim
 * as the behavioural baseline the fast path is verified against.
 */
bool
Sm::stepCycleReference(uint64_t cycle, uint64_t &next_event)
{
    lastStall.fill(0);
    lastOcc.fill(0);

    // Pass 1: refill exhausted trace chunks, classify every resident
    // warp.
    for (size_t i = 0; i < warps.size(); ++i) {
        WarpCtx &w = warps[i];
        if (!w.active || w.done)
            continue;
        if (w.pc >= w.chunk.instrs.size())
            refillChunk(w);
        cls[i] = classify(static_cast<int>(i), cycle);
        ++stats->classifyEvals;
    }

    bool issued_any = false;
    uint64_t min_event = kNoEvent;

    // Pass 2: per-scheduler issue. GTO tries the sticky warp first
    // and then ready warps oldest-first; LRR rotates. Port-blocked
    // candidates are marked (event = 1) so they are not retried.
    const int ns = cfg.numSchedulers;
    for (int s = 0; s < ns; ++s) {
        bool issued = false;
        bool structural = false;
        bool has_warp = false;

        auto try_issue = [&](int slot) -> bool {
            // Returns true when the scheduler is done for this cycle.
            WarpCtx &w = warps[static_cast<size_t>(slot)];
            const SimInstr &in = w.chunk.instrs[w.pc];
            const bool is_mem = isMemOp(in.op);
            const bool needs_alu = in.op == Op::FP32 ||
                                   in.op == Op::INT ||
                                   in.op == Op::SFU;
            if (is_mem && (lsuFree > cycle || mem.hasParked(smId))) {
                structural = true;
                min_event = std::min(min_event, lsuFree);
                cls[static_cast<size_t>(slot)].event = 1;
                return false;
            }
            if (needs_alu &&
                aluFree[static_cast<size_t>(s)] > cycle) {
                structural = true;
                min_event = std::min(
                    min_event, aluFree[static_cast<size_t>(s)]);
                cls[static_cast<size_t>(slot)].event = 1;
                return false;
            }
            issueInstr(slot, cycle, s);
            cls[static_cast<size_t>(slot)].reason =
                StallReason::Issued;
            issued = true;
            issued_any = true;
            const OccBucket b = bucketForLanes(in.activeLanes());
            lastOcc[static_cast<size_t>(b)] += 1;
            return true;
        };

        if (cfg.scheduler == SchedulerPolicy::Gto) {
            // Selection without sorting: each round picks the sticky
            // warp if eligible, else the oldest eligible candidate —
            // the same order the sorted version visits.
            for (;;) {
                int best = -1;
                uint64_t best_age = kNoEvent;
                for (int slot = s; slot < cfg.maxWarpsPerSm;
                     slot += ns) {
                    const WarpCtx &w =
                        warps[static_cast<size_t>(slot)];
                    if (!w.active || w.done)
                        continue;
                    has_warp = true;
                    const Classification &c =
                        cls[static_cast<size_t>(slot)];
                    if (c.reason != StallReason::NotSelected ||
                        c.event != 0)
                        continue;
                    if (slot == greedyWarp[static_cast<size_t>(s)]) {
                        best = slot;
                        break;
                    }
                    if (w.ageStamp < best_age) {
                        best_age = w.ageStamp;
                        best = slot;
                    }
                }
                if (best < 0)
                    break;
                if (try_issue(best)) {
                    greedyWarp[static_cast<size_t>(s)] = best;
                    break;
                }
            }
        } else {
            const int count = cfg.maxWarpsPerSm / ns;
            const int start =
                count > 0
                    ? rrCursor[static_cast<size_t>(s)] % count
                    : 0;
            for (int k = 0; k < count; ++k) {
                const int slot = s + ((start + k) % count) * ns;
                const WarpCtx &w = warps[static_cast<size_t>(slot)];
                if (!w.active || w.done)
                    continue;
                has_warp = true;
                const Classification &c =
                    cls[static_cast<size_t>(slot)];
                if (c.reason != StallReason::NotSelected ||
                    c.event != 0)
                    continue;
                if (try_issue(slot)) {
                    rrCursor[static_cast<size_t>(s)] =
                        (k + 1) % count;
                    break;
                }
            }
        }

        if (!issued) {
            const OccBucket b = (structural && has_warp)
                                    ? OccBucket::Stall
                                    : OccBucket::Idle;
            lastOcc[static_cast<size_t>(b)] += 1;
        }
    }

    // Pass 3: stall accounting for every resident warp + event merge.
    for (size_t i = 0; i < warps.size(); ++i) {
        const WarpCtx &w = warps[i];
        if (!w.active || w.done)
            continue;
        lastStall[static_cast<size_t>(cls[i].reason)] += 1;
        if (cls[i].reason != StallReason::Issued &&
            cls[i].event > cycle && cls[i].event != kNoEvent)
            min_event = std::min(min_event, cls[i].event);
    }

    for (int r = 0; r < kNumStallReasons; ++r)
        stats->stallCycles[static_cast<size_t>(r)] +=
            lastStall[static_cast<size_t>(r)];
    for (int b = 0; b < kNumOccBuckets; ++b)
        stats->occCycles[static_cast<size_t>(b)] +=
            lastOcc[static_cast<size_t>(b)];
    stats->schedulerSlots += static_cast<uint64_t>(ns);

    // With no issue and all events known, this SM is frozen until the
    // earliest of them: later steps replay this cycle's accounting.
    // Never freeze while an access is parked: its resolution can
    // establish earlier wakeups than any currently-known event (see
    // the fast-path comment).
    if (idleSkip && !issued_any && parkedWarp < 0 &&
        min_event != kNoEvent && min_event > cycle + 1) {
        idleUntil = min_event;
    }

    next_event = std::min(next_event, min_event);
    return issued_any;
}

void
Sm::accountExtra(uint64_t delta)
{
    for (int r = 0; r < kNumStallReasons; ++r)
        stats->stallCycles[static_cast<size_t>(r)] +=
            lastStall[static_cast<size_t>(r)] * delta;
    for (int b = 0; b < kNumOccBuckets; ++b)
        stats->occCycles[static_cast<size_t>(b)] +=
            lastOcc[static_cast<size_t>(b)] * delta;
    stats->schedulerSlots +=
        static_cast<uint64_t>(cfg.numSchedulers) * delta;
    stats->fastForwardCycles += delta;
}

void
Sm::replaySteps(uint64_t steps)
{
    // A frozen SM's step is accountExtra(1); an empty SM's step adds
    // the idle pattern (already in lastStall/lastOcc) but is not a
    // fast-forwarded cycle.
    accountExtra(steps);
    if (residentWarps == 0)
        stats->fastForwardCycles -= steps;
}

} // namespace gsuite
