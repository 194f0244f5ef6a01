#include "profiler/HwProfiler.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "util/Logging.hpp"
#include "util/ThreadPool.hpp"

namespace gsuite {

HwProfiler::HwProfiler(HwProfilerConfig cfg_in)
    : cfg(cfg_in), sms(static_cast<size_t>(cfg.numSms)), l2(cfg.l2)
{
    l1.reserve(static_cast<size_t>(cfg.numSms));
    for (int i = 0; i < cfg.numSms; ++i)
        l1.emplace_back(cfg.l1);
    int threads = cfg.numThreads > 0
                      ? cfg.numThreads
                      : std::min(ThreadPool::defaultLanes(), cfg.numSms);
    threads = std::clamp(threads, 1, cfg.numSms);
    if (threads > 1)
        pool = std::make_unique<ThreadPool>(threads);
}

HwProfileResult
HwProfiler::profile(const KernelLaunch &launch)
{
    panicIf(!launch.streamTrace, "profiling a launch without traces");

    const int64_t expected =
        (launch.dims.numCtas +
         static_cast<int64_t>(cfg.smSampleFactor) - 1) /
        static_cast<int64_t>(cfg.smSampleFactor);
    const int64_t ctas = std::min(expected, cfg.maxCtas);
    const int warps = launch.dims.warpsPerCta();
    const uint64_t sector =
        static_cast<uint64_t>(cfg.l1.sectorBytes);
    const int num_sms = cfg.numSms;

    // CTAs replay in bounded windows so the per-window L2 address
    // buffers never grow with launch size (PR 1's trace-memory goal
    // holds). Within a window, phase 1 replays each modeled SM's L1
    // slice (parallel across SMs): CTAs are distributed round-robin
    // (cta % numSms), so each SM's L1 sees exactly the access
    // sequence the serial replay would feed it, and LRU state only
    // depends on that per-cache relative order. L1 caches and
    // pseudo-clocks persist across windows.
    const int64_t window_ctas =
        static_cast<int64_t>(num_sms) * 4;
    for (size_t sm = 0; sm < sms.size(); ++sm) {
        l1[sm].flush();
        sms[sm].l1Hits = 0;
        sms[sm].l1Misses = 0;
        sms[sm].now = 0;
    }
    l2.flush();

    int64_t window_begin = 0;
    int64_t window_end = 0;
    auto replaySm = [&](size_t sm_index, int /*lane*/) {
        SmReplay &out = sms[sm_index];
        Cache &myL1 = l1[sm_index];
        uint64_t &now = out.now;
        WarpTrace trace;
        // Windows start at multiples of numSms, so SM k's first CTA
        // in the window is window_begin + k. Slot vectors keep their
        // capacity from window to window.
        size_t slot = 0;
        for (int64_t cta =
                 window_begin + static_cast<int64_t>(sm_index);
             cta < window_end; cta += num_sms, ++slot) {
            if (out.l2AddrsByCta.size() <= slot)
                out.l2AddrsByCta.emplace_back();
            std::vector<uint64_t> &l2_addrs = out.l2AddrsByCta[slot];
            l2_addrs.clear();
            for (int w = 0; w < warps; ++w) {
                // Stream the warp's trace in bounded chunks; the
                // replay only needs one chunk resident at a time.
                WarpTraceStream stream = launch.streamTrace(cta, w);
                uint8_t reg_cursor = 0;
                bool stream_done = false;
                while (!stream_done) {
                    trace.clear();
                    TraceBuilder tb(trace, 512, reg_cursor);
                    stream_done = stream(tb);
                    panicIf(trace.instrs.empty(),
                            "trace stream made no progress");
                    for (const SimInstr &in : trace.instrs) {
                        if (!isGlobalMemOp(in.op))
                            continue;
                        // Coalesce to unique 32B sectors.
                        uint64_t sectors[32];
                        int ns = 0;
                        for (uint64_t a : trace.addrsOf(in)) {
                            const uint64_t s = a / sector;
                            bool dup = false;
                            for (int i = 0; i < ns; ++i) {
                                if (sectors[i] == s) {
                                    dup = true;
                                    break;
                                }
                            }
                            if (!dup)
                                sectors[ns++] = s;
                        }
                        for (int i = 0; i < ns; ++i) {
                            const uint64_t addr =
                                sectors[i] * sector;
                            ++now;
                            const bool use_l1 = in.op != Op::ATOM;
                            bool l1_hit = false;
                            if (use_l1) {
                                l1_hit =
                                    myL1.probe(addr, now).hit;
                                if (l1_hit)
                                    ++out.l1Hits;
                                else
                                    ++out.l1Misses;
                                if (l1_hit && in.op == Op::LDG)
                                    continue; // served by L1
                            }
                            // The access reaches L2 (stores write
                            // through; atomics land there directly).
                            l2_addrs.push_back(addr);
                            if (use_l1 && in.op == Op::LDG &&
                                !l1_hit)
                                myL1.fill(addr, now, now);
                        }
                    }
                }
            }
        }
    };

    HwProfileResult res;
    uint64_t l2Now = 0;
    for (window_begin = 0; window_begin < ctas;
         window_begin += window_ctas) {
        window_end = std::min(window_begin + window_ctas, ctas);
        if (pool)
            pool->parallelFor(sms.size(), replaySm);
        else
            for (size_t sm = 0; sm < sms.size(); ++sm)
                replaySm(sm, 0);

        // Phase 2 — shared-L2 replay of the window in global CTA
        // order (the order the serial replay issues), keeping L2
        // LRU decisions identical.
        for (int64_t cta = window_begin; cta < window_end; ++cta) {
            const SmReplay &sm =
                sms[static_cast<size_t>(cta % num_sms)];
            const size_t slot =
                static_cast<size_t>((cta - window_begin) / num_sms);
            for (const uint64_t addr : sm.l2AddrsByCta[slot]) {
                ++l2Now;
                if (l2.probe(addr, l2Now).hit)
                    ++res.l2Hits;
                else {
                    ++res.l2Misses;
                    l2.fill(addr, l2Now, l2Now);
                }
            }
        }
    }
    for (const SmReplay &sm : sms) {
        res.l1Hits += sm.l1Hits;
        res.l1Misses += sm.l1Misses;
    }
    return res;
}

} // namespace gsuite
