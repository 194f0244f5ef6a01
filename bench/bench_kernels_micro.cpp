/**
 * @file
 * Table II companion: microbenchmarks of every core kernel's
 * functional implementation across input sizes — the raw per-kernel
 * cost data behind the end-to-end numbers. Runs on the suite's own
 * SweepSpec/BenchSession/ResultStore stack (one variant per
 * kernel x size point, a custom min-of-N timing runner), so its
 * results flow through the same table/CSV/JSON emitters as every
 * other bench.
 *
 *   --csv FILE        per-point CSV
 *   --json FILE       ResultStore JSON (default: none)
 *   --reps N          timed repetitions per point (default 20;
 *                     the minimum is reported, standard practice)
 *   --quick           fewer reps and only the small sizes
 */

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/BenchCommon.hpp"
#include "graph/Generators.hpp"
#include "kernels/Elementwise.hpp"
#include "kernels/IndexSelect.hpp"
#include "kernels/Scatter.hpp"
#include "kernels/Sgemm.hpp"
#include "kernels/Spgemm.hpp"
#include "kernels/Spmm.hpp"
#include "sparse/Convert.hpp"
#include "util/Logging.hpp"
#include "util/Random.hpp"
#include "util/Timer.hpp"

using namespace gsuite;
using namespace gsuite::bench;

namespace {

Graph
benchGraph(int64_t nodes, int64_t edges, int64_t flen)
{
    Rng rng(7);
    RmatParams p;
    p.nodes = nodes;
    p.edges = edges;
    Graph g = generateRmat(p, rng);
    fillFeatures(g, flen, rng);
    return g;
}

/** Time @p kernel reps times; keep the minimum (min-of-N). */
RunOutcome
timeKernel(Kernel &kernel, int reps, double bytes_per_iter,
           double flops_per_iter)
{
    kernel.execute(); // warm-up, and first-touch of the output
    double best_us = 0.0;
    for (int i = 0; i < reps; ++i) {
        Timer t;
        kernel.execute();
        const double us = t.elapsedMs() * 1e3;
        if (i == 0 || us < best_us)
            best_us = us;
    }
    RunOutcome out;
    out.meanEndToEndUs = best_us;
    out.minEndToEndUs = best_us;
    out.maxEndToEndUs = best_us;
    out.endToEndSamplesUs = {best_us};
    out.metrics["us_per_iter"] = best_us;
    if (bytes_per_iter > 0.0)
        out.metrics["gib_per_s"] =
            bytes_per_iter / (best_us * 1e-6) / (1024.0 * 1024.0 * 1024.0);
    if (flops_per_iter > 0.0)
        out.metrics["gflop_per_s"] =
            flops_per_iter / (best_us * 1e-6) / 1e9;
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    OptionSet cli;
    cli.parseArgs(argc, argv);
    // A serial host-CPU timing bench: no GPU model, no sweep lanes,
    // so --gpu and --sweep-threads are not declared.
    const UserParams params = UserParams::fromOptions(
        cli, {"list-gpus", "layers", "csv", "trace", "quiet"}, {});
    const bool quick = cli.getBool("quick", false);
    const std::string json_path = cli.getString("json", "");
    const int reps =
        static_cast<int>(cli.getInt("reps", quick ? 3 : 20));
    cli.rejectUnread();
    if (reps < 1)
        fatal("--reps must be >= 1");

    banner("kernel microbenchmarks",
           "functional kernels across input sizes, min of " +
               std::to_string(reps) + " reps");

    struct SizedCase {
        std::string label;
        bool quickOk;
        std::function<RunOutcome(int)> run;
    };
    std::vector<SizedCase> cases;

    auto addIndexSelect = [&](int64_t edges, int64_t flen,
                              bool quick_ok) {
        cases.push_back(
            {"IndexSelect/e" + std::to_string(edges) + "/f" +
                 std::to_string(flen),
             quick_ok, [edges, flen](int r) {
                 const Graph g =
                     benchGraph(edges / 4, edges, flen);
                 DenseMatrix out;
                 IndexSelectKernel k("is", g.features, g.src, out);
                 return timeKernel(
                     k, r,
                     static_cast<double>(edges * flen * 8), 0.0);
             }});
    };
    auto addScatter = [&](int64_t edges, int64_t flen,
                          bool quick_ok) {
        cases.push_back(
            {"ScatterSum/e" + std::to_string(edges) + "/f" +
                 std::to_string(flen),
             quick_ok, [edges, flen](int r) {
                 const Graph g =
                     benchGraph(edges / 4, edges, flen);
                 DenseMatrix msg;
                 IndexSelectKernel gather("is", g.features, g.src,
                                          msg);
                 gather.execute();
                 DenseMatrix out(g.numNodes(), flen);
                 ScatterKernel k("sc", msg, g.dst, out);
                 return timeKernel(
                     k, r,
                     static_cast<double>(edges * flen * 8), 0.0);
             }});
    };
    auto addSgemm = [&](int64_t n, int64_t k_dim, bool quick_ok) {
        cases.push_back(
            {"SGEMM/n" + std::to_string(n) + "/k" +
                 std::to_string(k_dim),
             quick_ok, [n, k_dim](int r) {
                 Rng rng(3);
                 DenseMatrix a(n, k_dim), b(k_dim, 16), c;
                 a.fillUniform(rng, -1, 1);
                 b.fillUniform(rng, -1, 1);
                 SgemmKernel kern("sg", a, b, c);
                 return timeKernel(
                     kern, r, 0.0,
                     static_cast<double>(2 * n * k_dim * 16));
             }});
    };
    auto addSpmm = [&](int64_t nodes, int64_t flen, bool quick_ok) {
        cases.push_back(
            {"SpMM/n" + std::to_string(nodes) + "/f" +
                 std::to_string(flen),
             quick_ok, [nodes, flen](int r) {
                 const Graph g =
                     benchGraph(nodes, nodes * 8, flen);
                 const CsrMatrix a = g.adjacencyCsr();
                 DenseMatrix c;
                 SpmmKernel k("sp", a, g.features, c);
                 return timeKernel(
                     k, r, 0.0,
                     static_cast<double>(2 * a.nnz() * flen));
             }});
    };
    auto addSpgemm = [&](int64_t nodes, bool quick_ok) {
        cases.push_back(
            {"SpGEMM/n" + std::to_string(nodes), quick_ok,
             [nodes](int r) {
                 const Graph g = benchGraph(nodes, nodes * 8, 1);
                 const CsrMatrix a = g.adjacencyCsr();
                 CsrMatrix c;
                 SpgemmKernel k("spg", a, a, c);
                 return timeKernel(k, r, 0.0, 0.0);
             }});
    };
    auto addRelu = [&](int64_t n, bool quick_ok) {
        cases.push_back(
            {"Relu/n" + std::to_string(n), quick_ok, [n](int r) {
                 Rng rng(5);
                 DenseMatrix in(n, 16), out;
                 in.fillUniform(rng, -1, 1);
                 ElementwiseKernel k(
                     "relu", ElementwiseKernel::EwOp::Relu, in,
                     out);
                 return timeKernel(
                     k, r, static_cast<double>(n * 16 * 8), 0.0);
             }});
    };

    addIndexSelect(1 << 13, 16, true);
    addIndexSelect(1 << 16, 16, false);
    addIndexSelect(1 << 16, 128, false);
    addScatter(1 << 13, 16, true);
    addScatter(1 << 16, 16, false);
    addScatter(1 << 16, 128, false);
    addSgemm(1 << 12, 128, true);
    addSgemm(1 << 14, 128, false);
    addSgemm(1 << 12, 1024, false);
    addSpmm(1 << 12, 16, true);
    addSpmm(1 << 14, 16, false);
    addSpmm(1 << 12, 128, false);
    addSpgemm(1 << 10, true);
    addSpgemm(1 << 12, false);
    addSpgemm(1 << 14, false);
    addRelu(1 << 14, true);
    addRelu(1 << 17, false);

    std::vector<SweepVariant> variants;
    std::vector<std::function<RunOutcome(int)>> runners;
    for (const SizedCase &c : cases) {
        if (quick && !c.quickOk)
            continue;
        variants.push_back({c.label, nullptr});
        runners.push_back(c.run);
    }

    // Serial session: this is a timing bench, concurrent points
    // would skew each other's wall clock.
    const SweepSpec spec =
        SweepSpec{}
            .engine(EngineKind::Functional)
            .variants(std::move(variants));
    const ResultStore store = BenchSession().run(
        spec, [&](const SweepPoint &pt) {
            RunOutcome out = runners.at(pt.index)(reps);
            out.params = pt.params;
            return out;
        });

    TablePrinter table("kernel microbenchmarks");
    table.header({"kernel/size", "us/iter", "GiB/s", "GFLOP/s"});
    for (const auto &r : store) {
        if (!r.ok) {
            table.row({r.point.variant, "FAIL: " + r.error});
            continue;
        }
        const auto &m = r.outcome.metrics;
        auto cell = [&](const char *key) {
            auto it = m.find(key);
            return it == m.end() ? std::string("-")
                                 : fmtDouble(it->second, 2);
        };
        table.row({r.point.variant, cell("us_per_iter"),
                   cell("gib_per_s"), cell("gflop_per_s")});
    }
    table.print();

    store.toCsv(params.csvOut);
    store.toJson(json_path,
                 {{"reps", static_cast<double>(reps)},
                  {"quick", quick ? 1.0 : 0.0}});
    if (!json_path.empty())
        std::printf("wrote %s\n", json_path.c_str());
    return store.allOk() ? 0 : 1;
}
