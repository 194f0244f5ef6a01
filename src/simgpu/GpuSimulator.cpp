#include "simgpu/GpuSimulator.hpp"

#include <algorithm>
#include <cinttypes>

#include "simgpu/CtaSampler.hpp"
#include "util/Logging.hpp"
#include "util/RunError.hpp"

namespace gsuite {

namespace {

/** Validate before any member (MemorySystem divides by slice count). */
GpuConfig
validated(GpuConfig cfg)
{
    cfg.validate();
    return cfg;
}

} // namespace

GpuSimulator::GpuSimulator(GpuConfig config)
    : cfg(validated(std::move(config))), mem(cfg)
{
    sms.reserve(static_cast<size_t>(cfg.numSms));
    for (int i = 0; i < cfg.numSms; ++i)
        sms.push_back(std::make_unique<Sm>(cfg, i, mem));
    smStats.resize(static_cast<size_t>(cfg.numSms));
}

int
GpuSimulator::resolveThreads(const SimOptions &opts) const
{
    // Auto is one thread: the three barriers per simulated cycle make
    // more threads slower on every host measured so far.
    return std::clamp(opts.numThreads > 0 ? opts.numThreads : 1, 1,
                      cfg.numSms);
}

void
GpuSimulator::settle(RunControl &ctl, int sm)
{
    uint64_t &skipped = ctl.skippedSteps[static_cast<size_t>(sm)];
    if (skipped > 0) {
        sms[static_cast<size_t>(sm)]->replaySteps(skipped);
        skipped = 0;
    }
}

void
GpuSimulator::stepRange(int begin, int end, RunControl &ctl,
                        int worker)
{
    // Only due SMs step. A frozen or empty SM's step would replay its
    // last classification and report its wake cycle as its next
    // event; the calendar does the same without the call, and the
    // replayed accounting is settled in bulk.
    bool issued = false;
    bool parked = false;
    uint64_t next_event = ~uint64_t{0};
    for (int i = begin; i < end; ++i) {
        const size_t si = static_cast<size_t>(i);
        if (ctl.wakeAt[si] > ctl.cycle) {
            ++ctl.skippedSteps[si];
            next_event = std::min(next_event, ctl.wakeAt[si]);
            continue;
        }
        settle(ctl, i);
        Sm &sm = *sms[si];
        issued = sm.stepCycle(ctl.cycle, next_event) || issued;
        ctl.wakeAt[si] = sm.wakeCycle(ctl.cycle);
        parked = parked || mem.hasParked(i);
    }
    ctl.issuedBy[static_cast<size_t>(worker)] = issued ? 1 : 0;
    ctl.parkedBy[static_cast<size_t>(worker)] = parked ? 1 : 0;
    ctl.eventBy[static_cast<size_t>(worker)] = next_event;
}

void
GpuSimulator::resolveRange(int begin, int end, const RunControl &ctl)
{
    // Only a parked access leaves sectors pending on a slice; with
    // none anywhere every resolveSlice() would return at once.
    if (std::none_of(ctl.parkedBy.begin(), ctl.parkedBy.end(),
                     [](uint8_t p) { return p != 0; }))
        return;
    for (int s = begin; s < end; ++s)
        mem.resolveSlice(s);
}

void
GpuSimulator::assignCtas(RunControl &ctl, uint64_t cycle)
{
    // Round-robin by free-slot discovery order. Sampled runs walk the
    // plan's CTA order instead of the dense prefix.
    for (size_t i = 0; i < sms.size(); ++i) {
        Sm &sm = *sms[i];
        if (ctl.nextCta >= ctl.ctasToSim)
            return;
        if (!sm.hasFreeCtaSlot())
            continue;
        // New warps end any skip window: replay it under the old
        // state first, and step the SM next cycle.
        settle(ctl, static_cast<int>(i));
        ctl.wakeAt[i] = 0;
        while (ctl.nextCta < ctl.ctasToSim && sm.hasFreeCtaSlot()) {
            const int64_t id =
                ctl.sampleOrder
                    ? (*ctl.sampleOrder)[static_cast<size_t>(
                          ctl.nextCta)]
                    : ctl.nextCta;
            ++ctl.nextCta;
            sm.assignCta(id, cycle);
        }
    }
}

void
GpuSimulator::controlPhase(RunControl &ctl)
{
    constexpr uint64_t kNoEvent = ~uint64_t{0};

    bool issued = false;
    uint64_t next_event = kNoEvent;
    for (size_t w = 0; w < ctl.issuedBy.size(); ++w) {
        issued = issued || ctl.issuedBy[w] != 0;
        next_event = std::min(next_event, ctl.eventBy[w]);
    }

    // The watchdog ceiling stops the clock exactly like cycleLimit
    // (so fast-forwarding cannot overshoot it), but is reported as an
    // error instead of a truncation.
    const uint64_t hard_stop =
        ctl.cycleCeiling
            ? std::min(ctl.cycleLimit, ctl.cycleCeiling)
            : ctl.cycleLimit;

    // Advance first, then re-assign and re-check: the reported cycle
    // count includes the cycle in which the last instruction issued
    // (matching the original serial loop, which broke at the top of
    // the iteration after the final issue).
    if (issued || next_event <= ctl.cycle + 1 ||
        next_event == kNoEvent) {
        ctl.cycle += 1;
    } else {
        // Fast-forward: nothing can issue until next_event, so
        // repeat each SM's current classification for the gap.
        const uint64_t target = std::min(next_event, hard_stop);
        const uint64_t delta = target - ctl.cycle - 1;
        if (delta > 0) {
            for (auto &sm : sms)
                sm->accountExtra(delta);
        }
        ctl.cycle = target;
    }

    // Trace sampling: snapshot the sampling core's cumulative
    // scheduler counters at the first stepped cycle at or past each
    // interval boundary. Runs on worker 0 after the resolve barrier
    // (every stepCycle write ordered before), reads only — every
    // deterministic counter is invariant to sampling.
    if (ctl.sampleEnabled && ctl.cycle >= ctl.nextSampleCycle) {
        settle(ctl, ctl.sampleCore);
        ctl.samples.push_back(
            sms[static_cast<size_t>(ctl.sampleCore)]
                ->sampleSchedState(ctl.cycle));
        ctl.nextSampleCycle =
            (ctl.cycle / ctl.sampleInterval + 1) *
            ctl.sampleInterval;
    }

    if (ctl.cycle >= hard_stop) {
        ctl.done = true;
        if (ctl.cycleCeiling && ctl.cycle >= ctl.cycleCeiling)
            ctl.hitCeiling = true;
        else
            ctl.hitLimit = true;
        return;
    }

    if (ctl.cancel &&
        ctl.cancel->load(std::memory_order_relaxed)) {
        ctl.done = true;
        ctl.cancelled = true;
        return;
    }

    assignCtas(ctl, ctl.cycle);

    bool busy = ctl.nextCta < ctl.ctasToSim;
    for (auto &sm : sms)
        busy = busy || sm->busy();
    if (!busy)
        ctl.done = true;
}

KernelStats
GpuSimulator::run(const KernelLaunch &launch, const SimOptions &opts)
{
    panicIf(!launch.streamTrace,
            "KernelLaunch without a trace generator");
    panicIf(launch.dims.numCtas <= 0 || launch.dims.threadsPerCta <= 0,
            "KernelLaunch with empty grid");

    const int threads = resolveThreads(opts);
    const size_t chunk_instrs = static_cast<size_t>(
        std::max(32, opts.traceChunkInstrs));

    // SM-subset sampling: the simulated numSms SMs stand for a GPU
    // with numSms * smSampleFactor SMs, so each should process a
    // 1/smSampleFactor share of the grid — this preserves per-SM
    // occupancy (small launches underfill the machine exactly as
    // they would the real one). The maxCtas cap bounds runtime for
    // huge grids on top of that.
    const int64_t expected =
        (launch.dims.numCtas +
         static_cast<int64_t>(cfg.smSampleFactor) - 1) /
        static_cast<int64_t>(cfg.smSampleFactor);

    // CTA sampling (sample.mode=cta): cycle-simulate a deterministic
    // stratified sample of that per-SM share and extrapolate. When
    // the plan does not engage (off, or the launch is small) the run
    // below is byte-identical to the pre-sampling simulator.
    CtaSamplePlan plan;
    if (cfg.sampleMode == CtaSampleMode::Cta)
        plan = buildCtaSamplePlan(cfg, launch, expected, opts.maxCtas);
    std::vector<std::vector<CtaSampleRecord>> sm_records;
    if (plan.engaged)
        sm_records.resize(sms.size());

    mem.reset();
    for (auto &st : smStats)
        st = KernelStats{};
    for (size_t i = 0; i < sms.size(); ++i)
        sms[i]->beginLaunch(&launch, &smStats[i], chunk_instrs,
                            opts.perSmFastForward,
                            plan.engaged ? &sm_records[i] : nullptr);

    RunControl ctl;
    ctl.ctasToSim = plan.engaged
                        ? static_cast<int64_t>(plan.order.size())
                        : std::min(expected, opts.maxCtas);
    ctl.sampleOrder = plan.engaged ? &plan.order : nullptr;
    ctl.cycleLimit = opts.cycleLimit;
    ctl.cycleCeiling = opts.cycleCeiling;
    ctl.cancel = opts.cancel;
    ctl.issuedBy.assign(static_cast<size_t>(threads), 0);
    ctl.eventBy.assign(static_cast<size_t>(threads), ~uint64_t{0});
    ctl.parkedBy.assign(static_cast<size_t>(threads), 0);
    ctl.wakeAt.assign(sms.size(), 0);
    ctl.skippedSteps.assign(sms.size(), 0);
    if (opts.smSampleEnabled) {
        ctl.sampleEnabled = true;
        ctl.sampleCore = std::clamp(opts.smSampleCore, 0,
                                    cfg.numSms - 1);
        ctl.sampleInterval =
            std::max<uint64_t>(1, opts.smSampleIntervalCycles);
        ctl.nextSampleCycle = ctl.sampleInterval;
    }

    // Initial CTA wave at cycle 0.
    assignCtas(ctl, 0);

    const int num_sms = cfg.numSms;
    const int num_slices = mem.numSlices();
    auto sm_begin = [&](int w) { return num_sms * w / threads; };
    auto slice_begin = [&](int w) {
        return num_slices * w / threads;
    };

    if (threads == 1) {
        while (!ctl.done) {
            stepRange(0, num_sms, ctl, 0);
            resolveRange(0, num_slices, ctl);
            controlPhase(ctl);
        }
    } else {
        if (!pool || pool->lanes() != threads)
            pool = std::make_unique<ThreadPool>(threads);
        SpinBarrier barrier(threads);
        pool->runOnAll([&](int worker) {
            for (;;) {
                barrier.arriveAndWait(); // control published
                if (ctl.done)
                    return;
                stepRange(sm_begin(worker), sm_begin(worker + 1),
                          ctl, worker);
                barrier.arriveAndWait(); // all SMs stepped
                resolveRange(slice_begin(worker),
                             slice_begin(worker + 1), ctl);
                barrier.arriveAndWait(); // memory resolved
                if (worker == 0)
                    controlPhase(ctl);
            }
        });
    }

    // Throw only here — every worker has left the barrier loop, so
    // no thread is waiting on a phase that will never be published.
    if (ctl.cancelled)
        throw RunException(
            RunError::Timeout,
            "kernel '" + launch.name +
                "' cancelled by watchdog at cycle " +
                std::to_string(ctl.cycle));
    if (ctl.hitCeiling)
        throw RunException(
            RunError::Timeout,
            "kernel '" + launch.name + "' exceeded the " +
                std::to_string(ctl.cycleCeiling) +
                "-cycle watchdog ceiling");

    // A truncated run (cycle limit) can stop the clock while a parked
    // access is still back-pressured mid-resolution; give the slices
    // as many further service rounds as they need first, so the drain
    // below only ever folds complete results.
    uint64_t drain_rounds = 0;
    while (mem.anyParkedIncomplete()) {
        for (int s = 0; s < num_slices; ++s)
            mem.resolveSlice(s);
        panicIf(++drain_rounds > 1000000,
                "parked memory accesses failed to drain (livelock?)");
    }
    // Flush any still-parked memory access so its counters land, and
    // replay every skip window before anything reads the counters.
    for (int i = 0; i < num_sms; ++i) {
        settle(ctl, i);
        sms[static_cast<size_t>(i)]->drainParkedMem();
    }

    // Closing sample so the trace covers the tail of the run (after
    // the parked-memory drain, whose counters belong to the launch).
    if (ctl.sampleEnabled &&
        (ctl.samples.empty() ||
         ctl.samples.back().cycle < ctl.cycle))
        ctl.samples.push_back(
            sms[static_cast<size_t>(ctl.sampleCore)]
                ->sampleSchedState(ctl.cycle));

    // Deterministic reduction: per-SM stats merge in SM-index order,
    // then the launch-global fields overwrite the zero-initialized
    // slots the per-SM stats never touch.
    KernelStats stats;
    for (const auto &st : smStats)
        stats.merge(st);
    // SMs hold their chunks concurrently: the launch footprint is the
    // sum of per-SM peaks (merge() combines peaks as max, which is
    // right across launches but not across SMs of one launch).
    stats.traceBytesPeak = 0;
    for (const auto &st : smStats)
        stats.traceBytesPeak += st.traceBytesPeak;
    stats.name = launch.name;
    stats.kind = launch.kind;
    stats.ctasTotal = launch.dims.numCtas;
    stats.ctasExpected = expected;
    stats.ctasSimulated = ctl.ctasToSim;
    stats.cycles = ctl.cycle;
    stats.dramBusyCycles =
        static_cast<uint64_t>(mem.dramBusyCycles());
    stats.dramQueuePeak = mem.dramQueuePeak();
    stats.smSamples = std::move(ctl.samples);

    if (plan.engaged) {
        // Gather per-SM completion records into the canonical order
        // (each CTA completes on exactly one SM, so sorting by CTA id
        // is thread-count independent), then extrapolate.
        std::vector<CtaSampleRecord> records;
        for (const auto &v : sm_records)
            records.insert(records.end(), v.begin(), v.end());
        std::sort(records.begin(), records.end(),
                  [](const CtaSampleRecord &a,
                     const CtaSampleRecord &b) {
                      return a.ctaId < b.ctaId;
                  });
        extrapolateCtaSample(plan, records, stats);
    }

    if (ctl.hitLimit) {
        warn("kernel '%s' hit the %" PRIu64
             "-cycle simulation limit after %" PRIu64
             " of %" PRIu64 " CTAs (expected %" PRIu64 ")",
             launch.name.c_str(), opts.cycleLimit,
             static_cast<uint64_t>(ctl.nextCta),
             static_cast<uint64_t>(ctl.ctasToSim),
             static_cast<uint64_t>(expected));
    }
    return stats;
}

} // namespace gsuite
