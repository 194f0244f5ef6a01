/**
 * @file
 * Tests for the execution engines and the hardware cache profiler:
 * timeline recording, simulator integration, and the Fig. 8
 * hardware-vs-simulator measurement paths.
 */

#include <gtest/gtest.h>

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
    // The measured-runs protocol: one engine, several adapter runs,
    // each building a fresh pipeline. Buffers kept alive between runs
    // move where the host heap places the next run's buffers; the
    // profiled cache counts must not notice.
    const Graph g = smallGraph();
    ModelConfig cfg;
    FunctionalEngine::Options opts;
    opts.profileCaches = true;
    FunctionalEngine engine(opts);
    const FrameworkAdapter adapter(Framework::Gsuite);
    std::vector<std::vector<float>> heap_shift;
    std::vector<std::vector<KernelRecord>> runs;
    for (int r = 0; r < 3; ++r) {
        runs.push_back(adapter.run(g, cfg, engine).timeline);
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
