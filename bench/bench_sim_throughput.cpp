/**
 * @file
 * Simulator-throughput benchmark: wall-clock and resident trace
 * memory per kernel class, with intra-kernel thread scaling — the
 * default engine configuration on one SM thread against the same
 * configuration on --threads. The SGEMM-dense point is the
 * issue-bound archetype: a deep-K GEMM whose schedulers are
 * saturated with FMA chains.
 *
 * Emits machine-readable JSON (default BENCH_sim_throughput.json)
 * via ResultStore::toJson so later changes can track the
 * performance trajectory:
 *
 *   --json FILE    output path
 *   --threads N    SM worker threads of the scaled run (0 = auto)
 *   --chunk N      trace-chunk instructions (default 256)
 *   --quick        smaller workloads for smoke runs
 *
 * KernelStats are bit-identical across thread counts (the
 * determinism suite enforces this, and the bench panics if cycles
 * differ); only wall-clock changes.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/BenchCommon.hpp"
#include "kernels/Scatter.hpp"
#include "kernels/Sgemm.hpp"
#include "kernels/Spmm.hpp"
#include "simgpu/GpuSimulator.hpp"
#include "sparse/Csr.hpp"
#include "tensor/DenseMatrix.hpp"
#include "util/Logging.hpp"
#include "util/Random.hpp"
#include "util/Timer.hpp"

using namespace gsuite;

namespace {

long
peakRssKb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

DenseMatrix
randomMatrix(int64_t r, int64_t c, uint64_t seed)
{
    DenseMatrix m(r, c);
    Rng rng(seed);
    m.fillUniform(rng, -1.0f, 1.0f);
    return m;
}

CsrMatrix
skewedCsr(int64_t n, uint64_t seed)
{
    // Power-law-ish degrees: heavy hubs every 41 rows, like the
    // paper's social/citation graphs after scaling. Hub rows expand
    // to multi-thousand-instruction traces, which is what streaming
    // trace generation exists to bound.
    Rng rng(seed);
    SparseBuilder bld(n, n);
    for (int64_t r = 0; r < n; ++r) {
        const int64_t deg = r % 41 == 0 ? 1024 : 2 + r % 9;
        for (int64_t k = 0; k < deg; ++k)
            bld.add(r, static_cast<int64_t>(
                           rng.nextBelow(static_cast<uint64_t>(n))),
                    rng.nextFloat(-1.0f, 1.0f));
    }
    return bld.finish();
}

/**
 * Simulate @p launch in the default configuration on one SM thread
 * and on @p threads, repeating @p reps times and keeping the best
 * wall-clock of each (standard min-of-N timing). Everything lands in
 * the outcome's metrics so ResultStore::toJson can emit it for trend
 * tracking; thread_eff is the scaling efficiency on this host.
 */
void
measure(RunOutcome &out, const KernelLaunch &launch,
        const GpuConfig &cfg, int64_t max_ctas, int threads,
        int chunk, int reps)
{
    GpuSimulator sim(cfg);
    double best_ms[2] = {0.0, 0.0};
    KernelStats first;
    for (int k = 0; k < 2; ++k) {
        SimOptions opts;
        opts.maxCtas = max_ctas;
        opts.numThreads = k == 0 ? 1 : threads;
        opts.traceChunkInstrs = chunk;
        for (int i = 0; i < reps; ++i) {
            Timer t;
            const KernelStats st = sim.run(launch, opts);
            const double ms = t.elapsedMs();
            if (i == 0 || ms < best_ms[k])
                best_ms[k] = ms;
            if (k == 0 && i == 0)
                first = st;
            panicIf(st.cycles != first.cycles,
                    "thread count changed simulated cycles");
        }
    }
    out.metrics["cycles"] = static_cast<double>(first.cycles);
    out.metrics["warp_instrs"] = static_cast<double>(first.warpInstrs);
    out.metrics["trace_bytes_peak"] =
        static_cast<double>(first.traceBytesPeak);
    out.metrics["one_thread_ms"] = best_ms[0];
    out.metrics["threaded_ms"] = best_ms[1];
    const double speedup =
        best_ms[1] > 0.0 ? best_ms[0] / best_ms[1] : 0.0;
    out.metrics["thread_speedup"] = speedup;
    out.metrics["thread_eff"] = speedup / threads;
}

} // namespace

int
main(int argc, char **argv)
{
    OptionSet opts;
    opts.parseArgs(argc, argv);
    const std::string json_path =
        opts.getString("json", "BENCH_sim_throughput.json");
    const int threads =
        static_cast<int>(opts.getInt("threads", 0));
    const int chunk = static_cast<int>(opts.getInt("chunk", 256));
    const bool quick = opts.getBool("quick", false);
    opts.rejectUnread();

    const int64_t n = quick ? 1200 : 4000;
    const int64_t feat = quick ? 32 : 64;
    const int64_t max_ctas = quick ? 256 : 1024;
    // Min-of-N wall-clock; a single rep is too noisy even for smoke
    // runs (first-touch page faults land on the first config).
    const int reps = quick ? 2 : 3;

    const GpuConfig cfg = GpuConfig::v100Sim();
    // GpuSimulator::resolveThreads, made explicit for the report.
    const int resolved_threads =
        std::clamp(threads > 0 ? threads : ThreadPool::defaultLanes(),
                   1, cfg.numSms);

    bench::banner("simulator throughput",
                  "default config, " + std::to_string(chunk) +
                      "-instr chunks: 1 thread vs " +
                      std::to_string(resolved_threads) +
                      " thread(s)");

    // One point per kernel archetype; each point measures the
    // 1-thread-vs-N-thread pair. Serial session: this is a timing
    // bench, concurrent points would skew each other's wall-clock.
    const SweepSpec spec =
        SweepSpec{}
            .engine(EngineKind::Sim)
            .variants({{"SpMM", nullptr},
                       {"SGEMM", nullptr},
                       {"SGEMM-dense", nullptr},
                       {"Scatter", nullptr}});

    const ResultStore store = BenchSession().run(
        spec, [&](const SweepPoint &pt) {
            RunOutcome out;
            out.params = pt.params;
            DeviceAllocator alloc;
            if (pt.variant == "SpMM") {
                // Irregular gather archetype.
                const CsrMatrix a = skewedCsr(n, 11);
                const DenseMatrix b = randomMatrix(n, feat, 12);
                DenseMatrix c;
                SpmmKernel k("spmm", a, b, c);
                k.execute();
                measure(out, k.makeLaunch(alloc), cfg, max_ctas,
                        resolved_threads, chunk, reps);
            } else if (pt.variant == "SGEMM") {
                // Dense compute archetype.
                const DenseMatrix a = randomMatrix(n / 2, 256, 13);
                const DenseMatrix b = randomMatrix(256, 128, 14);
                DenseMatrix c;
                SgemmKernel k("sgemm", a, b, c);
                k.execute();
                measure(out, k.makeLaunch(alloc), cfg, max_ctas,
                        resolved_threads, chunk, reps);
            } else if (pt.variant == "SGEMM-dense") {
                // Deep-K dense GEMM: long FMA chains over shared-
                // memory tiles keep every scheduler issue-bound —
                // the workload the SoA issue fast path targets.
                const DenseMatrix a =
                    randomMatrix(n / 4, 1024, 17);
                const DenseMatrix b = randomMatrix(1024, 256, 18);
                DenseMatrix c;
                SgemmKernel k("sgemm_dense", a, b, c);
                k.execute();
                measure(out, k.makeLaunch(alloc), cfg, max_ctas,
                        resolved_threads, chunk, reps);
            } else {
                // Atomic contention archetype.
                const int64_t e = n * 4;
                const DenseMatrix msg = randomMatrix(e, 16, 15);
                Rng rng(16);
                std::vector<int64_t> idx(static_cast<size_t>(e));
                for (auto &v : idx)
                    v = static_cast<int64_t>(rng.nextBelow(
                        static_cast<uint64_t>(n)));
                DenseMatrix dst(n, 16);
                ScatterKernel k("scatter", msg, idx, dst,
                                ScatterKernel::Reduce::Sum);
                k.execute();
                measure(out, k.makeLaunch(alloc), cfg, max_ctas,
                        resolved_threads, chunk, reps);
            }
            return out;
        });

    const std::string n_thr = std::to_string(resolved_threads);
    TablePrinter table("simulator throughput");
    table.header({"kernel", "1-thr ms", n_thr + "-thr ms", "speedup",
                  "efficiency", "trace KiB"});
    for (const auto &r : store) {
        if (!r.ok)
            continue;
        const auto &m = r.outcome.metrics;
        table.row({r.point.variant, fmtDouble(m.at("one_thread_ms"), 2),
                   fmtDouble(m.at("threaded_ms"), 2),
                   fmtDouble(m.at("thread_speedup"), 2),
                   fmtDouble(m.at("thread_eff"), 2),
                   fmtDouble(m.at("trace_bytes_peak") / 1024.0, 1)});
    }
    table.print();

    store.toJson(json_path,
                 {{"threads", static_cast<double>(resolved_threads)},
                  {"chunk", static_cast<double>(chunk)},
                  {"peak_rss_kb", static_cast<double>(peakRssKb())},
                  {"quick", quick ? 1.0 : 0.0}});
    std::printf("wrote %s\n", json_path.c_str());
    return 0;
}
