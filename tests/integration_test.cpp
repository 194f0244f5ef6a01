/**
 * @file
 * Cross-module integration tests: full pipelines on paper datasets
 * through both engines, the characterization shapes the paper
 * reports (Figs. 5-9), and framework-comparison invariants (Fig. 3/4).
 */

#include <gtest/gtest.h>

#include "engine/ExecutionEngine.hpp"
#include "frameworks/FrameworkAdapter.hpp"
#include "graph/Datasets.hpp"
#include "models/GnnModel.hpp"
#include "suite/Runner.hpp"

using namespace gsuite;

namespace {

/** Tiny-but-real dataset load for sim runs in CI. */
Graph
ciGraph(DatasetId id = DatasetId::Cora)
{
    DatasetScale s = defaultSimScale(id);
    s.featureCap = 64;
    return loadDataset(id, s, 7);
}

/** Sim engine tuned for test speed. */
SimEngine
ciSimEngine(bool profile_caches = false)
{
    SimEngine::Options opts;
    opts.sim.maxCtas = 256;
    opts.profileCaches = profile_caches;
    return SimEngine(opts);
}

const KernelRecord &
findKernel(const std::vector<KernelRecord> &timeline,
           KernelClass kind)
{
    for (const auto &rec : timeline) {
        if (rec.kind == kind)
            return rec;
    }
    throw std::runtime_error("kernel class not in timeline");
}

} // namespace

TEST(Integration, Fig5ShapeInstructionMix)
{
    const Graph g = ciGraph();
    ModelConfig cfg;
    cfg.model = GnnModelKind::Gcn;
    cfg.comp = CompModel::Mp;
    SimEngine engine = ciSimEngine();
    GnnPipeline p(g, cfg);
    p.run(engine);

    // indexSelect and scatter are INT + Load/Store dominated; sgemm
    // is FP32 dominated (paper Fig. 5).
    const auto &is = findKernel(engine.timeline(),
                                KernelClass::IndexSelect);
    EXPECT_GT(is.sim.instrShare(InstrClass::Int) +
                  is.sim.instrShare(InstrClass::LoadStore),
              0.7);
    EXPECT_LT(is.sim.instrShare(InstrClass::Fp32), 0.2);

    const auto &sc =
        findKernel(engine.timeline(), KernelClass::Scatter);
    EXPECT_GT(sc.sim.instrShare(InstrClass::Int) +
                  sc.sim.instrShare(InstrClass::LoadStore),
              0.6);

    const auto &sg = findKernel(engine.timeline(),
                                KernelClass::Sgemm);
    EXPECT_GT(sg.sim.instrShare(InstrClass::Fp32), 0.4);
}

TEST(Integration, Fig5MixStableAcrossDatasets)
{
    // The paper: the per-kernel instruction mix barely moves when the
    // dataset changes.
    ModelConfig cfg;
    cfg.model = GnnModelKind::Gcn;
    cfg.comp = CompModel::Mp;

    double is_int_share[2];
    int i = 0;
    for (const DatasetId id :
         {DatasetId::Cora, DatasetId::PubMed}) {
        const Graph g = ciGraph(id);
        SimEngine engine = ciSimEngine();
        GnnPipeline p(g, cfg);
        p.run(engine);
        const auto &is = findKernel(engine.timeline(),
                                    KernelClass::IndexSelect);
        is_int_share[i++] = is.sim.instrShare(InstrClass::Int);
    }
    EXPECT_NEAR(is_int_share[0], is_int_share[1], 0.05);
}

TEST(Integration, Fig6ShapeMemoryDependencyDominates)
{
    const Graph g = ciGraph();
    ModelConfig cfg;
    cfg.model = GnnModelKind::Gcn;
    cfg.comp = CompModel::Mp;
    SimEngine engine = ciSimEngine();
    GnnPipeline p(g, cfg);
    p.run(engine);

    // Memory dependency is the dominant stall for the gather/scatter
    // kernels (paper: 46.3% average across everything).
    const auto &is = findKernel(engine.timeline(),
                                KernelClass::IndexSelect);
    EXPECT_GT(is.sim.stallShare(StallReason::MemoryDependency), 0.3);
    const auto &sc =
        findKernel(engine.timeline(), KernelClass::Scatter);
    EXPECT_GT(sc.sim.stallShare(StallReason::MemoryDependency), 0.2);
    // scatter's atomics surface as synchronization pressure.
    EXPECT_GT(sc.sim.stallShare(StallReason::Synchronization), 0.05);
}

TEST(Integration, Fig8ShapeCacheRatesValidAndComparable)
{
    const Graph g = ciGraph();
    ModelConfig cfg;
    cfg.model = GnnModelKind::Gcn;
    cfg.comp = CompModel::Mp;
    SimEngine engine = ciSimEngine(true);
    GnnPipeline p(g, cfg);
    p.run(engine);

    double l1_gap = 0, l2_gap = 0;
    int kernels = 0;
    for (const auto &rec : engine.timeline()) {
        if (!rec.hasHw || !rec.hasSim)
            continue;
        if (rec.sim.l1Hits + rec.sim.l1Misses == 0)
            continue;
        ++kernels;
        l1_gap += std::abs(rec.hw.l1HitRate() -
                           rec.sim.l1HitRate());
        l2_gap += std::abs(rec.hw.l2HitRate() -
                           rec.sim.l2HitRate());
    }
    ASSERT_GT(kernels, 0);
    // Paper: L1 hardware/simulator values align better than L2.
    EXPECT_LT(l1_gap / kernels, l2_gap / kernels);
}

TEST(Integration, Fig9ShapeUtilizationBounded)
{
    const Graph g = ciGraph();
    ModelConfig cfg;
    cfg.model = GnnModelKind::Sage;
    cfg.comp = CompModel::Mp;
    SimEngine engine = ciSimEngine();
    GnnPipeline p(g, cfg);
    p.run(engine);
    for (const auto &rec : engine.timeline()) {
        EXPECT_GE(rec.sim.computeUtilization(), 0.0);
        EXPECT_LE(rec.sim.computeUtilization(), 1.0);
        EXPECT_GE(rec.sim.memoryUtilization(), 0.0);
        EXPECT_LE(rec.sim.memoryUtilization(), 1.0);
    }
    // sgemm does the FLOPs: it must lead compute utilization.
    const auto &sg = findKernel(engine.timeline(),
                                KernelClass::Sgemm);
    const auto &is = findKernel(engine.timeline(),
                                KernelClass::IndexSelect);
    EXPECT_GT(sg.sim.computeUtilization(),
              is.sim.computeUtilization());
}

TEST(Integration, Fig3ShapeFrameworkOrdering)
{
    // End-to-end: PyG > DGL > gSuite on every model (Fig. 3's shape).
    // endToEndUs blends deterministic overhead constants with *timed*
    // host kernel runs, so each measurement is the min of three runs:
    // a loaded host only ever inflates wall-clock, and the orderings
    // come from the overhead constants, so the minimum is the
    // faithful estimate (same rationale as min-of-N benchmarking).
    const Graph g = ciGraph();
    FunctionalEngine engine;
    const auto min_e2e = [&](Framework fw, const ModelConfig &cfg) {
        const FrameworkAdapter adapter(fw);
        const PreparedModel prepared = adapter.prepare(g, cfg);
        double best = 0.0;
        for (int i = 0; i < 3; ++i) {
            const double us = adapter.run(prepared, engine).endToEndUs;
            if (i == 0 || us < best)
                best = us;
        }
        return best;
    };
    for (const GnnModelKind model :
         {GnnModelKind::Gcn, GnnModelKind::Gin}) {
        ModelConfig cfg;
        cfg.model = model;
        const double pyg = min_e2e(Framework::Pyg, cfg);
        const double dgl = min_e2e(Framework::Dgl, cfg);
        cfg.comp = CompModel::Mp;
        const double gsm = min_e2e(Framework::Gsuite, cfg);
        cfg.comp = CompModel::Spmm;
        const double gss = min_e2e(Framework::Gsuite, cfg);
        EXPECT_GT(pyg, dgl) << gnnModelName(model);
        EXPECT_GT(dgl, gsm) << gnnModelName(model);
        EXPECT_GT(dgl, gss) << gnnModelName(model);
    }
}

TEST(Integration, Fig4ShapeKernelDistributionTracksModel)
{
    // The GNN model decides the kernel-time distribution; frameworks
    // barely move it (paper Fig. 4).
    const Graph g = ciGraph();
    FunctionalEngine engine;
    ModelConfig cfg;
    cfg.model = GnnModelKind::Gcn;

    const auto runOn = [&](Framework fw) {
        const FrameworkAdapter adapter(fw);
        return adapter.run(adapter.prepare(g, cfg), engine);
    };
    const auto pyg = runOn(Framework::Pyg);
    cfg.comp = CompModel::Mp;
    const auto gsm = runOn(Framework::Gsuite);

    // Deterministic part first: with the model fixed, both
    // frameworks must dispatch the same multiset of kernel classes —
    // the distribution's *support* cannot depend on the framework.
    std::map<KernelClass, int> c1, c2;
    for (const auto &rec : pyg.timeline)
        ++c1[rec.kind];
    for (const auto &rec : gsm.timeline)
        ++c2[rec.kind];
    EXPECT_EQ(c1, c2);

    const auto shares = [](const FrameworkRunResult &r) {
        auto by_class = wallUsByClass(r.timeline);
        double total = 0;
        for (auto &[k, v] : by_class)
            total += v;
        std::map<KernelClass, double> out;
        for (auto &[k, v] : by_class)
            out[k] = v / total;
        return out;
    };
    auto s1 = shares(pyg);
    auto s2 = shares(gsm);
    // Wall-clock shares jitter with host load (these are timed host
    // runs, not simulator counters) — even RUN_SERIAL doesn't shield
    // a loaded CI host — so the share comparison is deliberately
    // loose; the exact per-class counts above carry the shape claim.
    for (const auto &[cls, share] : s1)
        EXPECT_NEAR(share, s2[cls], 0.45);
}

TEST(Integration, L1BypassAblationChangesBehaviour)
{
    const Graph g = ciGraph();
    ModelConfig cfg;
    cfg.model = GnnModelKind::Gcn;
    cfg.comp = CompModel::Mp;

    SimEngine::Options base;
    base.sim.maxCtas = 256;
    SimEngine on(base);
    GnnPipeline p1(g, cfg);
    p1.run(on);

    base.gpu.l1BypassLoads = true;
    SimEngine off(base);
    GnnPipeline p2(g, cfg);
    p2.run(off);

    const auto &is_on = findKernel(on.timeline(),
                                   KernelClass::IndexSelect);
    const auto &is_off = findKernel(off.timeline(),
                                    KernelClass::IndexSelect);
    // Bypass removes load traffic from L1 (stores still write
    // through it), so L1 accesses must drop and L2 traffic rise.
    EXPECT_GT(is_on.sim.l1Hits + is_on.sim.l1Misses,
              is_off.sim.l1Hits + is_off.sim.l1Misses);
    EXPECT_GT(is_off.sim.l2Hits + is_off.sim.l2Misses,
              is_on.sim.l2Hits + is_on.sim.l2Misses);
}

TEST(Integration, SchedulerAblationBothComplete)
{
    const Graph g = ciGraph();
    ModelConfig cfg;
    cfg.model = GnnModelKind::Gcn;
    cfg.comp = CompModel::Spmm;
    for (const SchedulerPolicy pol :
         {SchedulerPolicy::Gto, SchedulerPolicy::Lrr}) {
        SimEngine::Options opts;
        opts.sim.maxCtas = 128;
        opts.gpu.scheduler = pol;
        SimEngine engine(opts);
        GnnPipeline p(g, cfg);
        p.run(engine);
        for (const auto &rec : engine.timeline())
            EXPECT_GT(rec.sim.cycles, 0u);
    }
}
