/**
 * @file
 * Tests for the execution engines and the hardware cache profiler:
 * timeline recording, simulator integration, and the Fig. 8
 * hardware-vs-simulator measurement paths.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "engine/ExecutionEngine.hpp"
#include "frameworks/FrameworkAdapter.hpp"
#include "graph/Generators.hpp"
#include "kernels/IndexSelect.hpp"
#include "kernels/Scatter.hpp"
#include "kernels/Sgemm.hpp"
#include "models/GnnModel.hpp"
#include "profiler/HwProfiler.hpp"
#include "util/Random.hpp"

using namespace gsuite;

namespace {

Graph
smallGraph(uint64_t seed = 3)
{
    Rng rng(seed);
    Graph g = generateErdosRenyi(120, 500, rng);
    fillFeatures(g, 16, rng);
    return g;
}

SimEngine::Options
fastSimOptions()
{
    SimEngine::Options opts;
    opts.gpu = GpuConfig::testTiny();
    opts.gpu.smSampleFactor = 1;
    return opts;
}

/**
 * A small profiler (16 KB L1s, 64 KB L2, power-of-two set counts)
 * that replays every CTA on a 2-lane pool.
 */
HwProfilerConfig
smallProfilerConfig()
{
    HwProfilerConfig hc;
    hc.numSms = 4;
    hc.smSampleFactor = 1;
    hc.numThreads = 2;
    hc.l1 = CacheGeometry{16 * 1024, 128, 32, 4, false};
    hc.l2 = CacheGeometry{64 * 1024, 128, 128, 16, true};
    return hc;
}

/** Cache-profiling engine: functional, or sim on 2 launch lanes. */
std::unique_ptr<ExecutionEngine>
profilingEngine(bool sim, bool memPlan)
{
    std::unique_ptr<ExecutionEngine> engine;
    if (sim) {
        SimEngine::Options opts = fastSimOptions();
        opts.profileCaches = true;
        opts.hwConfig = smallProfilerConfig();
        opts.parallelLaunches = 2;
        engine = std::make_unique<SimEngine>(opts);
    } else {
        FunctionalEngine::Options opts;
        opts.profileCaches = true;
        opts.hwConfig = smallProfilerConfig();
        engine = std::make_unique<FunctionalEngine>(opts);
    }
    engine->setMemPlanMode(memPlan, 2);
    return engine;
}

void
expectSameProfile(const HwProfileResult &a, const HwProfileResult &b)
{
    EXPECT_EQ(a.l1Hits, b.l1Hits);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.l2Hits, b.l2Hits);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
}

/** Everything two runs report except host wall-clock times. */
void
expectSameRun(const FrameworkRunResult &a, const FrameworkRunResult &b)
{
    ASSERT_EQ(a.timeline.size(), b.timeline.size());
    for (size_t k = 0; k < a.timeline.size(); ++k) {
        const KernelRecord &x = a.timeline[k];
        const KernelRecord &y = b.timeline[k];
        SCOPED_TRACE(x.name);
        EXPECT_EQ(x.name, y.name);
        EXPECT_EQ(x.kind, y.kind);
        ASSERT_EQ(x.hasSim, y.hasSim);
        ASSERT_TRUE(x.hasHw && y.hasHw);
        expectSameProfile(x.hw, y.hw);
        const StatSet sx = x.sim.toStatSet();
        const StatSet sy = y.sim.toStatSet();
        ASSERT_EQ(sx.names(), sy.names());
        for (const std::string &n : sx.names())
            EXPECT_EQ(sx.get(n), sy.get(n)) << n;
    }
    const GraphRunReport &ga = a.graph;
    const GraphRunReport &gb = b.graph;
    EXPECT_EQ(ga.nodes, gb.nodes);
    EXPECT_EQ(ga.edges, gb.edges);
    EXPECT_EQ(ga.parts, gb.parts);
    EXPECT_EQ(ga.hasSim, gb.hasSim);
    EXPECT_EQ(ga.serialCycles, gb.serialCycles);
    EXPECT_EQ(ga.criticalPathCycles, gb.criticalPathCycles);
    EXPECT_EQ(ga.makespanCycles, gb.makespanCycles);
    EXPECT_EQ(ga.planned, gb.planned);
    EXPECT_EQ(ga.memPeakPlannedBytes, gb.memPeakPlannedBytes);
    EXPECT_EQ(ga.memPeakNaiveBytes, gb.memPeakNaiveBytes);
}

bool
sameBytes(const DenseMatrix &a, const DenseMatrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.size()) * sizeof(float)) ==
               0;
}

/** One framework pipeline: every model x comp the adapters accept. */
struct PipelineCase {
    Framework fw;
    GnnModelKind model;
    CompModel comp;
};

std::string
caseName(const ::testing::TestParamInfo<PipelineCase> &info)
{
    return std::string(frameworkName(info.param.fw)) + "_" +
           gnnModelName(info.param.model) + "_" +
           compModelName(info.param.comp);
}

void
PrintTo(const PipelineCase &c, std::ostream *os)
{
    *os << frameworkName(c.fw) << "/" << gnnModelName(c.model) << "/"
        << compModelName(c.comp);
}

} // namespace

TEST(FunctionalEngineTest, RecordsTimeline)
{
    const Graph g = smallGraph();
    ModelConfig cfg;
    FunctionalEngine engine;
    GnnPipeline p(g, cfg);
    p.run(engine);
    ASSERT_EQ(engine.timeline().size(), p.numKernels());
    for (const auto &rec : engine.timeline()) {
        EXPECT_FALSE(rec.name.empty());
        EXPECT_GE(rec.wallUs, 0.0);
        EXPECT_FALSE(rec.hasSim);
        EXPECT_FALSE(rec.hasHw);
    }
    EXPECT_GT(engine.totalWallUs(), 0.0);
}

TEST(FunctionalEngineTest, ClearTimeline)
{
    const Graph g = smallGraph();
    ModelConfig cfg;
    FunctionalEngine engine;
    GnnPipeline p(g, cfg);
    p.run(engine);
    engine.clearTimeline();
    EXPECT_TRUE(engine.timeline().empty());
    EXPECT_EQ(engine.totalWallUs(), 0.0);
}

TEST(FunctionalEngineTest, CacheProfilingFillsHwRecords)
{
    const Graph g = smallGraph();
    ModelConfig cfg;
    FunctionalEngine::Options opts;
    opts.profileCaches = true;
    FunctionalEngine engine(opts);
    GnnPipeline p(g, cfg);
    p.run(engine);
    for (const auto &rec : engine.timeline()) {
        EXPECT_TRUE(rec.hasHw);
        EXPECT_GT(rec.hw.l1Hits + rec.hw.l1Misses, 0u);
    }
}

TEST(FunctionalEngineTest, RepeatedRunsProfileIdentically)
{
    // One engine, several adapter runs, each on a freshly prepared
    // pipeline. Buffers kept alive between runs move where the host
    // heap places the next run's buffers; the profiled cache counts
    // must not notice.
    const Graph g = smallGraph();
    ModelConfig cfg;
    FunctionalEngine::Options opts;
    opts.profileCaches = true;
    FunctionalEngine engine(opts);
    const FrameworkAdapter adapter(Framework::Gsuite);
    std::vector<std::vector<float>> heap_shift;
    std::vector<std::vector<KernelRecord>> runs;
    for (int r = 0; r < 3; ++r) {
        runs.push_back(
            adapter.run(adapter.prepare(g, cfg), engine).timeline);
        heap_shift.emplace_back(4096 * (r + 1), 1.0f);
    }
    ASSERT_FALSE(runs[0].empty());
    for (size_t r = 1; r < runs.size(); ++r) {
        ASSERT_EQ(runs[r].size(), runs[0].size());
        for (size_t k = 0; k < runs[0].size(); ++k) {
            SCOPED_TRACE(runs[0][k].name + " run " + std::to_string(r));
            const HwProfileResult &a = runs[0][k].hw;
            const HwProfileResult &b = runs[r][k].hw;
            EXPECT_TRUE(runs[r][k].hasHw);
            EXPECT_EQ(a.l1Hits, b.l1Hits);
            EXPECT_EQ(a.l1Misses, b.l1Misses);
            EXPECT_EQ(a.l2Hits, b.l2Hits);
            EXPECT_EQ(a.l2Misses, b.l2Misses);
        }
    }
}

TEST(SimEngineTest, FillsSimulatorStats)
{
    const Graph g = smallGraph();
    ModelConfig cfg;
    SimEngine engine(fastSimOptions());
    GnnPipeline p(g, cfg);
    p.run(engine);
    for (const auto &rec : engine.timeline()) {
        EXPECT_TRUE(rec.hasSim);
        EXPECT_GT(rec.sim.cycles, 0u);
        EXPECT_GT(rec.sim.warpInstrs, 0u);
        EXPECT_EQ(rec.sim.name, rec.name);
    }
}

TEST(SimEngineTest, SimAndFunctionalProduceSameOutput)
{
    const Graph g = smallGraph();
    ModelConfig cfg;
    FunctionalEngine fe;
    GnnPipeline p1(g, cfg);
    p1.run(fe);
    SimEngine se(fastSimOptions());
    GnnPipeline p2(g, cfg);
    p2.run(se);
    EXPECT_EQ(DenseMatrix::maxAbsDiff(p1.output(), p2.output()), 0.0);
}

TEST(HwProfilerTest, StreamingKernelHasLowL1HitRate)
{
    // sgemm over a large matrix: mostly streaming with tile reuse.
    DenseMatrix a(256, 256), b(256, 16), c;
    Rng rng(4);
    a.fillUniform(rng, -1, 1);
    b.fillUniform(rng, -1, 1);
    SgemmKernel k("sg", a, b, c);
    k.execute();
    DeviceAllocator alloc;
    const KernelLaunch l = k.makeLaunch(alloc);
    HwProfiler prof;
    const HwProfileResult res = prof.profile(l);
    EXPECT_GT(res.l1Hits + res.l1Misses, 0u);
    EXPECT_GE(res.l1HitRate(), 0.0);
    EXPECT_LE(res.l1HitRate(), 1.0);
    EXPECT_GE(res.l2HitRate(), 0.0);
}

TEST(HwProfilerTest, LineGranularityGivesSpatialHits)
{
    // Full-line L2 fills mean 4 consecutive 32B sectors produce one
    // miss + three hits; the sectored L1 misses all four.
    DenseMatrix a(64, 64), b(64, 64), c;
    Rng rng(5);
    a.fillUniform(rng, -1, 1);
    b.fillUniform(rng, -1, 1);
    SgemmKernel k("sg", a, b, c);
    k.execute();
    DeviceAllocator alloc;
    const KernelLaunch l = k.makeLaunch(alloc);
    HwProfiler prof;
    const HwProfileResult res = prof.profile(l);
    EXPECT_GT(res.l2HitRate(), 0.4);
}

TEST(HwProfilerTest, SamplingLimitsCtas)
{
    DenseMatrix a(2048, 16), b(16, 16), c;
    Rng rng(6);
    a.fillUniform(rng, -1, 1);
    b.fillUniform(rng, -1, 1);
    SgemmKernel k("sg", a, b, c);
    k.execute();
    DeviceAllocator alloc;
    const KernelLaunch l = k.makeLaunch(alloc);
    HwProfilerConfig cfg;
    cfg.maxCtas = 2;
    HwProfiler small(cfg);
    HwProfiler big; // default cap
    const auto rs = small.profile(l);
    const auto rb = big.profile(l);
    EXPECT_LT(rs.l1Hits + rs.l1Misses, rb.l1Hits + rb.l1Misses);
}

TEST(HwProfilerTest, ParallelReplayIsBitIdentical)
{
    // The slice-parallel replay (per-SM L1 lanes + ordered shared-L2
    // pass) must reproduce the serial replay's counters exactly, for
    // a kernel mix with loads, stores and atomics.
    const Graph g = smallGraph(9);
    DenseMatrix msg;
    IndexSelectKernel gather("is", g.features, g.src, msg);
    gather.execute();
    DenseMatrix out(g.numNodes(), g.featureLen());
    ScatterKernel k("sc", msg, g.dst, out);
    k.execute();
    DeviceAllocator alloc;
    const KernelLaunch l = k.makeLaunch(alloc);

    HwProfilerConfig serial_cfg;
    serial_cfg.numThreads = 1;
    HwProfilerConfig parallel_cfg;
    parallel_cfg.numThreads = 4;
    const HwProfileResult serial =
        HwProfiler(serial_cfg).profile(l);
    const HwProfileResult parallel =
        HwProfiler(parallel_cfg).profile(l);
    EXPECT_GT(serial.l1Hits + serial.l1Misses, 0u);
    EXPECT_EQ(serial.l1Hits, parallel.l1Hits);
    EXPECT_EQ(serial.l1Misses, parallel.l1Misses);
    EXPECT_EQ(serial.l2Hits, parallel.l2Hits);
    EXPECT_EQ(serial.l2Misses, parallel.l2Misses);
}

TEST(HwProfilerTest, ReusedProfilerMatchesFreshOnes)
{
    // One profiler across a whole pipeline's launches — its replay
    // pool and cache arrays reused — must report exactly what a
    // fresh profiler per launch does, serial and parallel alike.
    const Graph g = smallGraph(5);
    ModelConfig cfg;
    cfg.model = GnnModelKind::Gat;
    GnnPipeline p(g, cfg);
    DeviceAllocator alloc;
    std::vector<KernelLaunch> launches;
    for (const OpNode &n : p.opGraph().nodes()) {
        n.kernel->execute();
        launches.push_back(n.kernel->makeLaunch(alloc));
    }
    for (int threads : {1, 3}) {
        HwProfilerConfig hc = smallProfilerConfig();
        hc.numThreads = threads;
        HwProfiler reused(hc);
        for (const KernelLaunch &l : launches) {
            SCOPED_TRACE(l.name + " threads " + std::to_string(threads));
            expectSameProfile(reused.profile(l), HwProfiler(hc).profile(l));
        }
    }
}

class PreparedModelTest : public ::testing::TestWithParam<PipelineCase>
{
};

TEST_P(PreparedModelTest, ReplayMatchesFreshBuilds)
{
    // The run protocol: a model prepared once and run N times must
    // report what N freshly built models report — outputs, timelines,
    // sim stats, hw profiles and graph reports — on both engines, in
    // both placement modes, batched or not. The fresh model stays
    // alive during the replayed run, so the two sit at different
    // host addresses.
    constexpr int kRuns = 3;
    Rng rng(11);
    Graph g = generateErdosRenyi(48, 160, rng);
    fillFeatures(g, 8, rng);
    const PipelineCase &c = GetParam();
    ModelConfig cfg;
    cfg.model = c.model;
    cfg.comp = c.comp;
    const FrameworkAdapter adapter(c.fw);
    for (const int batch : {1, 2})
        for (const bool memPlan : {false, true})
            for (const bool sim : {false, true}) {
                SCOPED_TRACE("batch " + std::to_string(batch) +
                             (memPlan ? " mem-plan" : " naive") +
                             (sim ? " sim" : " functional"));
                const auto freshEngine = profilingEngine(sim, memPlan);
                const auto replayEngine = profilingEngine(sim, memPlan);
                const PreparedModel prepared =
                    adapter.prepare(g, cfg, batch);
                ASSERT_EQ(prepared.batch(), static_cast<size_t>(batch));
                for (int r = 0; r < kRuns; ++r) {
                    SCOPED_TRACE("run " + std::to_string(r));
                    const PreparedModel fresh =
                        adapter.prepare(g, cfg, batch);
                    const FrameworkRunResult a =
                        adapter.run(fresh, *freshEngine);
                    const FrameworkRunResult b =
                        adapter.run(prepared, *replayEngine);
                    expectSameRun(a, b);
                    EXPECT_EQ(a.graph.planned, memPlan);
                    for (size_t i = 0; i < prepared.batch(); ++i)
                        EXPECT_TRUE(sameBytes(fresh.pipeline(i).output(),
                                              prepared.pipeline(i).output()))
                            << "replica " << i;
                }
            }
}

INSTANTIATE_TEST_SUITE_P(
    AllPipelines, PreparedModelTest,
    ::testing::Values(
        PipelineCase{Framework::Gsuite, GnnModelKind::Gcn, CompModel::Mp},
        PipelineCase{Framework::Gsuite, GnnModelKind::Gcn, CompModel::Spmm},
        PipelineCase{Framework::Gsuite, GnnModelKind::Gin, CompModel::Mp},
        PipelineCase{Framework::Gsuite, GnnModelKind::Gin, CompModel::Spmm},
        PipelineCase{Framework::Gsuite, GnnModelKind::Sage, CompModel::Mp},
        PipelineCase{Framework::Gsuite, GnnModelKind::Gat, CompModel::Mp},
        PipelineCase{Framework::Dgl, GnnModelKind::Sage, CompModel::Spmm}),
    caseName);
