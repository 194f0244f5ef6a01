/**
 * @file
 * Sampled-simulation benchmark: the speedup-vs-error frontier of
 * CTA-sampled cycle simulation (GpuConfig sample.* / --sample cta)
 * against the full simulator, per GPU preset.
 *
 * Two validation kernels (SpMM over a window-local CSR mimicking a
 * locality-reordered graph, and SpGEMM over a hub-skewed CSR, both
 * with heterogeneous per-CTA cost) run full-then-sampled at
 * fractions 1/16, 1/8 and 1/4, recording wall-clock, extrapolated
 * cycles and the declared error bars. The bench gates itself: at
 * fraction 1/8 on v100-sim the sampled run must be at least 4x
 * faster, the extrapolated cycles must land within 5% of the full
 * run, and the err_* bounds must contain the full-run value.
 *
 * A third point opens the graph size sampling exists for: a
 * deterministic R-MAT web graph (rmat:scale=16,ef=8 = 524288 edges,
 * ~100x cora) that is only ever cycle-simulated in sampled mode.
 *
 * The full (non --quick) run repeats the frontier on the a100
 * preset, ungated, as a deliberate validity-boundary exhibit: the
 * a100 model's 40 MiB L2 retains cross-CTA reuse (overlapping
 * gather windows, SpGEMM's shared operand) that a scattered sample
 * cannot reproduce, so extrapolation overestimates well beyond the
 * declared err_* bars (+40%/+84% at 1/8 measured). The bars cover
 * stratified-sampling variance only, never cross-CTA memory
 * coupling — which is systematic, and exactly why the accuracy
 * gate binds on v100-sim, whose 6 MiB L2 keeps that coupling weak.
 *
 * Emits machine-readable JSON (default BENCH_sampled_sim.json) via
 * ResultStore::toJson:
 *
 *   --json FILE    output path
 *   --quick        smaller workloads for smoke runs
 *
 * Wall-clock metrics (*_ms, *_speedup) are noisy by nature; every
 * est_* / err_* / sampled_ctas metric is deterministic (pinned by
 * sampled_sim_test's rerun/thread-count cases).
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/BenchCommon.hpp"
#include "graph/Datasets.hpp"
#include "hwdb/HwPresets.hpp"
#include "kernels/Spgemm.hpp"
#include "kernels/Spmm.hpp"
#include "simgpu/GpuSimulator.hpp"
#include "sparse/Csr.hpp"
#include "suite/UserParams.hpp"
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
skewedCsr(int64_t n, uint64_t seed, int64_t hub_deg)
{
    // Power-law-ish degrees: heavy hubs every 41 rows. The hub/light
    // imbalance is exactly what the stratified sampler must capture —
    // a uniform CTA sample that misses the hubs would extrapolate a
    // fraction of the true cycle count.
    //
    Rng rng(seed);
    SparseBuilder bld(n, n);
    for (int64_t r = 0; r < n; ++r) {
        const int64_t deg = r % 41 == 0 ? hub_deg : 2 + r % 9;
        for (int64_t k = 0; k < deg; ++k)
            bld.add(r, static_cast<int64_t>(
                           rng.nextBelow(static_cast<uint64_t>(n))),
                    rng.nextFloat(-1.0f, 1.0f));
    }
    return bld.finish();
}

CsrMatrix
windowedCsr(int64_t n, uint64_t seed, int64_t rows_per_cta)
{
    // The SpMM gate workload: every CTA gathers B rows from its own
    // private 256-row window. This mirrors a locality-reordered
    // graph (RCM / clustering, the standard preprocessing for GNN
    // adjacency matrices) and makes per-CTA memory behavior nearly
    // identical between sampled and full runs — CTA sampling's
    // validity condition. A uniformly random column distribution
    // instead couples CTAs through shared-L2 cold-start and MSHR
    // occupancy, which scales with run length and biases the
    // extrapolation upward regardless of sample composition.
    //
    // Heavy CTAs (a hashed ~20%) draw 64 columns per row; light rows
    // draw 2-26. The resulting ~4x per-CTA cost skew is what the
    // stratified sampler must capture. Heaviness and degree are both
    // hash-spread rather than periodic so CTA durations vary
    // continuously — near-uniform durations synchronize completions
    // into scheduler limit cycles that differ between a full and a
    // sampled run of the same deterministic machine.
    //
    // Window bases are hashed, not strided: a grid-ordered full run
    // over strided windows streams DRAM near-sequentially, giving it
    // a row-buffer hit rate a scattered CTA sample cannot reproduce.
    // Hashing makes the co-resident window set equally scattered in
    // both runs, so their DRAM bank/row statistics match.
    const int64_t kWindow = 256;
    Rng rng(seed);
    SparseBuilder bld(n, n);
    for (int64_t r = 0; r < n; ++r) {
        const int64_t cta = r / rows_per_cta;
        const int64_t base = (cta * 2654435761LL) % (n - kWindow);
        if ((cta * 40503LL) % 1024 < 205) {
            for (int64_t k = 0; k < 64; ++k)
                bld.add(r,
                        base + static_cast<int64_t>(rng.nextBelow(
                                   static_cast<uint64_t>(kWindow))),
                        rng.nextFloat(-1.0f, 1.0f));
        } else {
            // Wide per-row degree spread: near-uniform light-CTA
            // durations would synchronize completions into scheduler
            // limit cycles that differ between a full and a sampled
            // run of the same deterministic machine.
            const int64_t deg = 2 + ((r * 2654435761LL) >> 6) % 25;
            for (int64_t k = 0; k < deg; ++k)
                bld.add(r,
                        base + static_cast<int64_t>(rng.nextBelow(
                                   static_cast<uint64_t>(kWindow))),
                        rng.nextFloat(-1.0f, 1.0f));
        }
    }
    return bld.finish();
}

CsrMatrix
lightCsr(int64_t n, uint64_t seed)
{
    // Uniformly light rows (2-4 nnz): as SpGEMM's B operand it keeps
    // the functional product's size linear in A's nnz while A's hub
    // rows still dominate the per-CTA cycle cost.
    Rng rng(seed);
    SparseBuilder bld(n, n);
    for (int64_t r = 0; r < n; ++r) {
        const int64_t deg = 2 + r % 3;
        for (int64_t k = 0; k < deg; ++k)
            bld.add(r, static_cast<int64_t>(
                           rng.nextBelow(static_cast<uint64_t>(n))),
                    rng.nextFloat(-1.0f, 1.0f));
    }
    return bld.finish();
}

/** Min-of-@p reps wall-clock of @p sim over @p launch. */
double
timedRun(GpuSimulator &sim, const KernelLaunch &launch,
         const SimOptions &opts, int reps, KernelStats &st)
{
    double best_ms = 0.0;
    for (int i = 0; i < reps; ++i) {
        Timer t;
        st = sim.run(launch, opts);
        const double ms = t.elapsedMs();
        if (i == 0 || ms < best_ms)
            best_ms = ms;
    }
    return best_ms;
}

/** The sampled-fraction frontier measured against one full run. */
const std::vector<std::pair<std::string, std::string>> &
fractionSpecs()
{
    // Default min_ctas/saturation floor apply on top (the bench
    // populations are sized so 1/8 stays well above both); seed
    // pinned for rerun determinism.
    static const std::vector<std::pair<std::string, std::string>>
        specs = {
            {"1/16", "cta:fraction=0.0625:seed=7"},
            {"1/8", "cta:fraction=0.125:seed=7"},
            {"1/4", "cta:fraction=0.25:seed=7"},
        };
    return specs;
}

/**
 * Run @p launch once in full and once per frontier fraction on
 * @p gpu, filling the outcome's metrics. When @p gate is set, the
 * fraction-1/8 point must clear the speedup/error acceptance gates.
 */
void
measureFrontier(RunOutcome &out, const KernelLaunch &launch,
                const GpuConfig &gpu, int reps, bool gate,
                double min_speedup)
{
    SimOptions opts;
    opts.maxCtas = int64_t{1} << 30; // simulate the whole population

    GpuSimulator full_sim(gpu);
    KernelStats full;
    const double full_ms = timedRun(full_sim, launch, opts, reps, full);
    panicIf(full.sampledCtas != 0, "full run unexpectedly sampled");
    out.metrics["full_ms"] = full_ms;
    out.metrics["full_cycles"] = static_cast<double>(full.cycles);
    out.metrics["population_ctas"] =
        static_cast<double>(full.ctasSimulated);

    for (const auto &[label, spec] : fractionSpecs()) {
        GpuConfig cfg = gpu;
        applyCtaSampleSpec(cfg, spec);
        GpuSimulator sim(cfg);
        KernelStats st;
        const double ms = timedRun(sim, launch, opts, reps, st);
        if (st.sampledCtas == 0)
            panic("sampling disengaged at fraction %s "
                  "(population %lld)",
                  label.c_str(),
                  static_cast<long long>(full.ctasSimulated));

        const double est = st.estimate("cycles");
        const double err = st.estimateErr("cycles");
        const double truth = static_cast<double>(full.cycles);
        const double speedup = ms > 0.0 ? full_ms / ms : 0.0;
        const double rel_err =
            truth > 0.0 ? std::abs(est - truth) / truth : 0.0;
        const bool bounded = std::abs(est - truth) <= err;
        std::printf("  %-5s %5lld CTAs  %7.1f ms  %5.2fx  est %.4g "
                    "+- %.2f%%  rel err %+.2f%%\n",
                    label.c_str(),
                    static_cast<long long>(st.sampledCtas), ms,
                    speedup, est, est > 0.0 ? err / est * 100.0 : 0.0,
                    (est - truth) / truth * 100.0);
        std::string p = "f"; // f16 / f8 / f4
        p += label.substr(2);
        out.metrics[p + "_ms"] = ms;
        out.metrics[p + "_speedup"] = speedup;
        out.metrics[p + "_sampled_ctas"] =
            static_cast<double>(st.sampledCtas);
        out.metrics[p + "_est_cycles"] = est;
        out.metrics[p + "_err_cycles"] = err;
        out.metrics[p + "_rel_err"] = rel_err;
        out.metrics[p + "_bounds_ok"] = bounded ? 1.0 : 0.0;

        if (gate && label == "1/8") {
            if (speedup < min_speedup)
                panic("sampled sim only %.2fx faster than full at "
                      "fraction 1/8 (gate %.1fx)",
                      speedup, min_speedup);
            if (rel_err > 0.05)
                panic("extrapolated cycles off by %.2f%% at "
                      "fraction 1/8 (gate 5%%)",
                      rel_err * 100.0);
            if (!bounded)
                panic("err_cycles bound %.4g excludes the full-run "
                      "value %.4g (est %.4g)",
                      err, truth, est);
        }
    }
}

/**
 * The web-scale point: cycle-simulated only in sampled mode. No full
 * baseline is run — that is the point of sampling — so the metrics
 * carry the sampled wall-clock and the extrapolated estimate alone.
 */
void
measureSampledOnly(RunOutcome &out, const KernelLaunch &launch,
                   const GpuConfig &gpu, int reps)
{
    SimOptions opts;
    opts.maxCtas = int64_t{1} << 30;

    GpuConfig cfg = gpu;
    applyCtaSampleSpec(cfg, fractionSpecs()[1].second); // 1/8
    GpuSimulator sim(cfg);
    KernelStats st;
    const double ms = timedRun(sim, launch, opts, reps, st);
    panicIf(st.sampledCtas == 0,
            "web-scale point did not sample");

    out.metrics["f8_ms"] = ms;
    out.metrics["f8_sampled_ctas"] =
        static_cast<double>(st.sampledCtas);
    out.metrics["population_ctas"] =
        static_cast<double>(st.ctasExpected);
    out.metrics["f8_est_cycles"] = st.estimate("cycles");
    out.metrics["f8_err_cycles"] = st.estimateErr("cycles");
    out.metrics["f8_est_warp_instrs"] = st.estimate("warp_instrs");
    out.metrics["f8_err_warp_instrs"] =
        st.estimateErr("warp_instrs");
}

std::string
metricOr(const std::map<std::string, double> &m,
         const std::string &key, int precision,
         const char *missing = "-")
{
    const auto it = m.find(key);
    return it == m.end() ? std::string(missing)
                         : fmtDouble(it->second, precision);
}

} // namespace

int
main(int argc, char **argv)
{
    OptionSet opts;
    opts.parseArgs(argc, argv);
    const std::string json_path =
        opts.getString("json", "BENCH_sampled_sim.json");
    const bool quick = opts.getBool("quick", false);
    // Frontier exploration without the acceptance gates (e.g. when
    // retuning workload sizes or the error model).
    const bool no_gate = opts.getBool("no-gate", false);
    opts.rejectUnread();

    // Populations are counted after the preset's SM-subset division
    // (v100-sim: /10): 327680 rows at feat 64 (2 chunks) -> 81920
    // CTAs -> 8192-CTA population, whose 1/8 sample of 1024 CTAs is
    // ~16 full co-residency waves (64 slots) — comfortably inside
    // the ratio estimator's saturation regime.
    //
    // What the sizes control is the share of DRAM traffic that is
    // per-CTA-private. CTA sampling extrapolates from per-CTA
    // behavior, so cross-CTA memory coupling is exactly what it
    // cannot see: the A-side CSR streams (col_idx/vals) are
    // contiguous arrays that a full run's co-resident CTAs read as
    // one near-sequential DRAM sweep, while a scattered sample reads
    // disjoint chunks of them — the full run's extra row-buffer
    // locality is unreproducible and extrapolates as an upward cycle
    // bias proportional to A's share of DRAM bytes (measured: ~+16%
    // at a ~40% A-share, ~+2% at a ~7% share). feat 64 plus the
    // 256-row gather window keep B's private traffic dominant. Quick
    // trims presets and reps, not sizes — shrinking the graph is
    // exactly what breaks the estimate.
    const int64_t spmm_rows = 327680;
    const int64_t spmm_feat = 64;
    const int64_t spgemm_rows = 327680;
    const int64_t hub_deg = 1024;
    const int reps = quick ? 1 : 2;
    const double min_speedup = 4.0;
    const std::string rmat_spec = quick
                                      ? "rmat:scale=15,ef=8,seed=5"
                                      : "rmat:scale=16,ef=8,seed=5";

    bench::banner(
        "sampled simulation",
        std::string("full vs cta-sampled at 1/16, 1/8, 1/4 | gate: "
                    "1/8 on v100-sim >=") +
            fmtDouble(min_speedup, 1) +
            "x, <=5% cycle error | web point " + rmat_spec);

    // Serial session: a timing bench; concurrent points would skew
    // each other's wall-clock.
    const SweepSpec spec =
        SweepSpec{}
            .engine(EngineKind::Sim)
            .gpus(quick ? std::vector<std::string>{"v100-sim"}
                        : std::vector<std::string>{"v100-sim",
                                                   "a100"})
            .variants({{"SpMM", nullptr},
                       {"SpGEMM", nullptr},
                       {"SpMM-rmat",
                        [&](UserParams &p) { p.dataset = rmat_spec; }}})
            // The web point is the headline estimate, so it only
            // runs on the machine the gate validates: the a100
            // column exists to exhibit coupling bias (see header),
            // and an ungated biased estimate with tight bars would
            // invite trusting exactly the number sampling gets
            // wrong there.
            .skip([](const UserParams &p) {
                return p.gpu != "v100-sim" &&
                       p.dataset.rfind("rmat:", 0) == 0;
            });

    const ResultStore store = BenchSession().run(
        spec, [&](const SweepPoint &pt) {
            RunOutcome out;
            out.params = pt.params;
            const GpuConfig gpu = resolveGpuSpec(pt.params.gpu);
            const bool gate =
                !no_gate && pt.params.gpu == "v100-sim";
            DeviceAllocator alloc;
            if (pt.variant == "SpMM") {
                const CsrMatrix a = windowedCsr(
                    spmm_rows, 11, 8 / ((spmm_feat + 31) / 32));
                const DenseMatrix b =
                    randomMatrix(spmm_rows, spmm_feat, 12);
                DenseMatrix c;
                SpmmKernel k("spmm_sampled", a, b, c);
                k.execute();
                measureFrontier(out, k.makeLaunch(alloc), gpu, reps,
                                gate, min_speedup);
            } else if (pt.variant == "SpGEMM") {
                const CsrMatrix a =
                    skewedCsr(spgemm_rows, 13, hub_deg / 4);
                const CsrMatrix b = lightCsr(spgemm_rows, 14);
                CsrMatrix c;
                SpgemmKernel k("spgemm_sampled", a, b, c);
                k.execute();
                measureFrontier(out, k.makeLaunch(alloc), gpu, reps,
                                gate, min_speedup);
            } else {
                // ~100x cora's edge count; generation is a pure
                // function of the spec, so no dataset file exists or
                // is needed.
                const Graph g = loadRmatDataset(
                    parseRmatSpec(rmat_spec), DatasetScale::full());
                const CsrMatrix a = g.adjacencyCsr();
                DenseMatrix c;
                SpmmKernel k("spmm_rmat", a, g.features, c);
                k.execute();
                measureSampledOnly(out, k.makeLaunch(alloc), gpu,
                                   reps);
            }
            return out;
        });

    TablePrinter table("sampled simulation (fraction 1/8 column)");
    table.header({"kernel", "gpu", "pop CTAs", "full ms", "1/8 ms",
                  "speedup", "est Mcyc", "err %", "rel err %"});
    for (const auto &r : store) {
        if (!r.ok)
            continue;
        const auto &m = r.outcome.metrics;
        const double est = m.count("f8_est_cycles")
                               ? m.at("f8_est_cycles")
                               : 0.0;
        const double err_pct =
            est > 0.0 ? m.at("f8_err_cycles") / est * 100.0 : 0.0;
        table.row({r.point.variant, r.point.params.gpu,
                   metricOr(m, "population_ctas", 0),
                   metricOr(m, "full_ms", 1),
                   metricOr(m, "f8_ms", 1),
                   metricOr(m, "f8_speedup", 2),
                   fmtDouble(est / 1e6, 2), fmtDouble(err_pct, 1),
                   m.count("f8_rel_err")
                       ? fmtDouble(m.at("f8_rel_err") * 100.0, 2)
                       : std::string("-")});
    }
    table.print();

    store.toJson(json_path,
                 {{"peak_rss_kb", static_cast<double>(peakRssKb())},
                  {"quick", quick ? 1.0 : 0.0}});
    std::printf("wrote %s\n", json_path.c_str());
    return 0;
}
