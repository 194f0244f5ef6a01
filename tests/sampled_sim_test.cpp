/**
 * @file
 * CTA-sampled simulation: plan construction, extrapolation
 * arithmetic, determinism across reruns and worker-thread counts,
 * and byte-equality of sample.mode=off with the pre-sampling
 * simulator.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <set>

#include "simgpu/CtaSampler.hpp"
#include "simgpu/GpuSimulator.hpp"
#include "simgpu/KernelLaunch.hpp"
#include "simgpu/Trace.hpp"

using namespace gsuite;

namespace {

/**
 * A skewed launch: CTA c's single warp runs an ALU chain whose
 * length grows with c plus a strided load, so per-CTA cost is
 * heterogeneous and the memory system sees traffic. One warp per
 * CTA keeps the full run fast.
 */
KernelLaunch
skewedLaunch(int64_t ctas)
{
    KernelLaunch l;
    l.name = "skewed";
    l.kind = KernelClass::Aux;
    l.dims.numCtas = ctas;
    l.dims.threadsPerCta = 32;
    l.streamTrace = [](int64_t cta, int) {
        return WarpTraceStream([=](TraceBuilder &b) {
            std::array<uint64_t, 32> a{};
            for (int i = 0; i < 32; ++i)
                a[static_cast<size_t>(i)] =
                    0x100000ull +
                    static_cast<uint64_t>(cta) * 4096ull +
                    static_cast<uint64_t>(i) * 128ull;
            const Reg r = b.load({a.data(), 32});
            b.alu(Op::FP32, r);
            b.aluChain(Op::INT, 3 + static_cast<int>(cta % 13) * 4);
            b.exit();
            return true;
        });
    };
    l.ctaCostHint = [](int64_t cta) -> uint64_t {
        return 5 + static_cast<uint64_t>(cta % 13) * 4;
    };
    return l;
}

GpuConfig
sampledTiny(double fraction = 0.125, int64_t min_ctas = 16,
            uint64_t seed = 1)
{
    GpuConfig cfg = GpuConfig::testTiny();
    cfg.smSampleFactor = 1;
    cfg.sampleMode = CtaSampleMode::Cta;
    cfg.sampleFraction = fraction;
    cfg.sampleMinCtas = min_ctas;
    cfg.sampleSeed = seed;
    return cfg;
}

GpuConfig
offTiny()
{
    GpuConfig cfg = GpuConfig::testTiny();
    cfg.smSampleFactor = 1;
    return cfg;
}

/** Every named stat of two runs, compared exactly. */
void
expectStatsIdentical(const KernelStats &a, const KernelStats &b)
{
    const StatSet sa = a.toStatSet();
    const StatSet sb = b.toStatSet();
    ASSERT_EQ(sa.names(), sb.names());
    for (const std::string &n : sa.names())
        EXPECT_EQ(sa.get(n), sb.get(n)) << "stat " << n;
}

} // namespace

TEST(CtaSamplePlan, DeterministicAndWellFormed)
{
    const GpuConfig cfg = sampledTiny();
    const KernelLaunch l = skewedLaunch(512);
    const CtaSamplePlan p1 = buildCtaSamplePlan(cfg, l, 512, 2048);
    const CtaSamplePlan p2 = buildCtaSamplePlan(cfg, l, 512, 2048);

    ASSERT_TRUE(p1.engaged);
    EXPECT_EQ(p1.order, p2.order);
    EXPECT_EQ(p1.stratumOf, p2.stratumOf);
    EXPECT_EQ(p1.stratumSize, p2.stratumSize);
    EXPECT_EQ(p1.stratumSampled, p2.stratumSampled);

    // 512 * 0.125 = 64 sampled CTAs in 64/32 = 2 strata.
    EXPECT_EQ(p1.order.size(), 64u);
    EXPECT_EQ(p1.numStrata(), 2);

    // Unique in-range ids; stratum bookkeeping adds up.
    std::set<int64_t> seen(p1.order.begin(), p1.order.end());
    EXPECT_EQ(seen.size(), p1.order.size());
    EXPECT_GE(*seen.begin(), 0);
    EXPECT_LT(*seen.rbegin(), 512);
    int64_t size_sum = 0, sampled_sum = 0;
    for (int h = 0; h < p1.numStrata(); ++h) {
        size_sum += p1.stratumSize[static_cast<size_t>(h)];
        sampled_sum += p1.stratumSampled[static_cast<size_t>(h)];
    }
    EXPECT_EQ(size_sum, 512);
    EXPECT_EQ(sampled_sum,
              static_cast<int64_t>(p1.order.size()));
}

TEST(CtaSamplePlan, SeedAndKernelIdentitySteerTheSample)
{
    const KernelLaunch l = skewedLaunch(512);
    const CtaSamplePlan base =
        buildCtaSamplePlan(sampledTiny(), l, 512, 2048);
    const CtaSamplePlan reseeded = buildCtaSamplePlan(
        sampledTiny(0.125, 16, 99), l, 512, 2048);

    KernelLaunch renamed = skewedLaunch(512);
    renamed.name = "skewed_v2";
    const CtaSamplePlan other = buildCtaSamplePlan(
        sampledTiny(), renamed, 512, 2048);

    ASSERT_TRUE(reseeded.engaged);
    ASSERT_TRUE(other.engaged);
    EXPECT_NE(base.order, reseeded.order);
    EXPECT_NE(base.order, other.order);
}

TEST(CtaSamplePlan, DisengagesWhenOffSmallOrFullFraction)
{
    const KernelLaunch l = skewedLaunch(512);

    GpuConfig off = offTiny();
    EXPECT_FALSE(buildCtaSamplePlan(off, l, 512, 2048).engaged);

    // Sample would cover the whole population: stay exact.
    EXPECT_FALSE(
        buildCtaSamplePlan(sampledTiny(1.0), l, 512, 2048).engaged);
    EXPECT_FALSE(
        buildCtaSamplePlan(sampledTiny(), l, 8, 2048).engaged);
}

TEST(CtaSamplePlan, MaxCtasCapsTheSample)
{
    const KernelLaunch l = skewedLaunch(4096);
    const CtaSamplePlan p =
        buildCtaSamplePlan(sampledTiny(0.25), l, 4096, 100);
    ASSERT_TRUE(p.engaged);
    EXPECT_EQ(p.order.size(), 100u);
}

TEST(CtaSampleExtrapolate, UniformSamplePinsExactArithmetic)
{
    // Hand-built plan: population 100, one stratum, 10 sampled.
    CtaSamplePlan plan;
    plan.engaged = true;
    plan.population = 100;
    plan.stratumSize = {100};
    plan.stratumSampled = {10};
    for (int64_t i = 0; i < 10; ++i) {
        plan.order.push_back(i);
        plan.stratumOf.push_back(0);
    }

    // Every sampled CTA: 10 cycles resident, 5 warp instructions.
    std::vector<CtaSampleRecord> records;
    for (int64_t i = 0; i < 10; ++i)
        records.push_back({i, 0, 10, 5});

    KernelStats st;
    st.cycles = 40;
    st.warpsSimulated = 10;
    st.warpInstrs = 50;
    extrapolateCtaSample(plan, records, st);

    EXPECT_EQ(st.sampledCtas, 10);
    EXPECT_EQ(st.sampleStrata, 1);

    // est_dur total = 100 * 10 = 1000, sum_dur = 100 -> cycle scale
    // 10x; zero within-stratum variance leaves only the 4% floor.
    EXPECT_DOUBLE_EQ(st.estimate("cycles"), 400.0);
    EXPECT_DOUBLE_EQ(st.estimateErr("cycles"), 400.0 * 0.04);

    // Work scale is likewise exactly 10x with the 2% floor.
    EXPECT_DOUBLE_EQ(st.estimate("warp_instrs"), 500.0);
    EXPECT_DOUBLE_EQ(st.estimateErr("warp_instrs"), 500.0 * 0.02);

    // Warp counts expand by the exact count ratio, error-free.
    EXPECT_DOUBLE_EQ(st.estimate("warps"), 100.0);
    EXPECT_DOUBLE_EQ(st.estimateErr("warps"), 0.0);
}

TEST(SampledSim, EstimatesBoundTheFullRun)
{
    const KernelLaunch l = skewedLaunch(512);

    GpuSimulator full(offTiny());
    const KernelStats ref = full.run(l);
    ASSERT_EQ(ref.ctasSimulated, 512);
    ASSERT_EQ(ref.sampledCtas, 0);
    ASSERT_TRUE(ref.estimates.empty());

    GpuSimulator sampled(sampledTiny());
    const KernelStats st = sampled.run(l);
    ASSERT_EQ(st.sampledCtas, 64);
    EXPECT_EQ(st.ctasSimulated, 64);
    EXPECT_EQ(st.ctasExpected, 512);
    ASSERT_FALSE(st.estimates.empty());

    // The raw sampled counters cover only 64 CTAs.
    EXPECT_EQ(st.warpsSimulated, 64);
    EXPECT_LT(st.warpInstrs, ref.warpInstrs);

    // Extrapolations of the full-population totals contain the full
    // run's values within the declared error bars.
    for (const char *name :
         {"cycles", "warp_instrs", "thread_instrs", "l1_misses",
          "mem_sectors", "scheduler_slots"}) {
        const double est = st.estimate(name);
        const double err = st.estimateErr(name);
        const double truth = ref.toStatSet().get(name);
        EXPECT_LE(std::abs(est - truth), err)
            << name << ": est " << est << " +- " << err
            << " vs full " << truth;
    }
    EXPECT_DOUBLE_EQ(st.estimate("warps"), 512.0);
}

TEST(SampledSim, BitIdenticalAcrossRerunsAndThreadCounts)
{
    const KernelLaunch l = skewedLaunch(512);
    const GpuConfig cfg = sampledTiny();

    SimOptions serial;
    serial.numThreads = 1;
    SimOptions parallel;
    parallel.numThreads = 4;

    GpuSimulator s1(cfg), s2(cfg), s3(cfg);
    const KernelStats a = s1.run(l, serial);
    const KernelStats b = s2.run(l, serial);
    const KernelStats c = s3.run(l, parallel);

    expectStatsIdentical(a, b);
    expectStatsIdentical(a, c);
    ASSERT_EQ(a.estimates.size(), c.estimates.size());
    for (size_t i = 0; i < a.estimates.size(); ++i) {
        EXPECT_EQ(a.estimates[i].name, c.estimates[i].name);
        EXPECT_EQ(a.estimates[i].est, c.estimates[i].est);
        EXPECT_EQ(a.estimates[i].err, c.estimates[i].err);
    }
}

TEST(SampledSim, OffModeIsByteIdenticalToDefaultConfig)
{
    const KernelLaunch l = skewedLaunch(256);

    GpuConfig off = offTiny();
    off.sampleMode = CtaSampleMode::Off;
    // Non-default knobs must be inert while the mode is off.
    off.sampleFraction = 0.5;
    off.sampleMinCtas = 1;
    off.sampleSeed = 42;

    GpuSimulator plain(offTiny()), disabled(off);
    const KernelStats a = plain.run(l);
    const KernelStats b = disabled.run(l);
    expectStatsIdentical(a, b);
    EXPECT_EQ(b.sampledCtas, 0);
    EXPECT_FALSE(b.toStatSet().has("est_cycles"));
}

TEST(SampledSim, MergeCombinesEstimatedAndExactSides)
{
    const KernelLaunch l = skewedLaunch(512);

    GpuSimulator sampled(sampledTiny());
    KernelStats agg = sampled.run(l);
    const double est_before = agg.estimate("cycles");

    GpuSimulator full(offTiny());
    const KernelStats exact = full.run(skewedLaunch(64));

    agg.merge(exact);
    // The unsampled side contributes its exact cycles with zero
    // error, on top of the sampled side's estimate.
    EXPECT_DOUBLE_EQ(agg.estimate("cycles"),
                     est_before + static_cast<double>(exact.cycles));
    EXPECT_GT(agg.estimateErr("cycles"), 0.0);
    EXPECT_EQ(agg.sampledCtas, 64);
}
