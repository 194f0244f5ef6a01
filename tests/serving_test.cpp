/**
 * @file
 * Tests for the serving subsystem and its hwdb fault-plan substrate:
 * arrival-spec parsing and canonicalization, seeded arrival-stream
 * and fault-plan determinism (including concurrent generation on a
 * thread pool — the --sweep-threads invariance contract), trace
 * replay, fault-plan round trips and preset resolution, the
 * batch-dispatch cost model against the op-graph IR ground truth,
 * every admission/degradation path of runServing, serving-policy
 * round trips, and the BenchSession watchdog's RunError::Timeout
 * surfacing in CSV/JSON.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "graph/Generators.hpp"
#include "hwdb/FaultPlan.hpp"
#include "ir/OpGraph.hpp"
#include "models/GnnModel.hpp"
#include "serving/RequestStream.hpp"
#include "serving/ServingScheduler.hpp"
#include "suite/BenchSession.hpp"
#include "util/Random.hpp"
#include "util/StringUtils.hpp"
#include "util/ThreadPool.hpp"

using namespace gsuite;

namespace {

std::vector<RequestProfile>
oneProfile(uint64_t slo = 0, int priority = 0)
{
    RequestProfile p;
    p.classIndex = 0;
    p.priority = priority;
    p.sloCycles = slo;
    return {p};
}

/** A hand-built single-kernel class costing @p cycles. */
ClassCost
trivialClass(uint64_t cycles, uint64_t memBytes = 0)
{
    ClassCost c;
    c.name = "trivial";
    c.nodeCycles = {cycles};
    c.preds = {{}};
    c.memBytes = memBytes;
    c.serialCycles = cycles;
    return c;
}

Request
requestAt(uint64_t id, uint64_t cycle, int priority = 0,
          uint64_t deadline = ~uint64_t{0})
{
    Request r;
    r.id = id;
    r.classIndex = 0;
    r.priority = priority;
    r.arrivalCycle = cycle;
    r.deadlineCycle = deadline;
    return r;
}

uint64_t
totalAccounted(const ServingStats &s)
{
    return s.completed + s.shedOverflow + s.shedDeadline +
           s.shedOversize + s.failed;
}

std::string
tempPath(const char *name)
{
    return std::string(::testing::TempDir()) + name;
}

} // namespace

// ---------------------------------------------------------------------------
// Arrival specs

TEST(ArrivalSpec, ParseDescribeRoundTrip)
{
    for (const char *canonical :
         {"poisson:rate=40", "poisson:rate=12.5",
          "bursty:rate=80;on=0.25;period=500000",
          "trace:file=/tmp/a.trace"}) {
        const ArrivalSpec spec = parseArrivalSpec(canonical);
        EXPECT_EQ(spec.describe(), canonical);
        EXPECT_EQ(parseArrivalSpec(spec.describe()), spec);
    }
    // Bare kinds and parameter defaults.
    EXPECT_EQ(parseArrivalSpec("poisson").describe(),
              "poisson:rate=40");
    EXPECT_EQ(parseArrivalSpec(" Bursty:RATE=80 ").kind,
              ArrivalKind::Bursty);
}

TEST(ArrivalSpec, RejectsBadSpecs)
{
    EXPECT_EXIT(parseArrivalSpec("uniform"),
                ::testing::ExitedWithCode(1), "unknown arrival kind");
    EXPECT_EXIT(parseArrivalSpec("poisson:rate=-4"),
                ::testing::ExitedWithCode(1), "rate must be");
    EXPECT_EXIT(parseArrivalSpec("bursty:on=1.5"),
                ::testing::ExitedWithCode(1), "on-fraction");
    EXPECT_EXIT(parseArrivalSpec("trace"),
                ::testing::ExitedWithCode(1), "file=PATH");
    EXPECT_EXIT(parseArrivalSpec("poisson:bogus=1"),
                ::testing::ExitedWithCode(1), "unknown parameter");
}

TEST(ArrivalSpec, ExpandListCanonicalizesAndDedups)
{
    const std::vector<std::string> specs = expandArrivalSpecs(
        "poisson, poisson:rate=40, bursty:rate=80;on=0.5;"
        "period=1000000, poisson:rate=80");
    ASSERT_EQ(specs.size(), 3u);
    EXPECT_EQ(specs[0], "poisson:rate=40");
    EXPECT_EQ(specs[1], "bursty:rate=80;on=0.5;period=1000000");
    EXPECT_EQ(specs[2], "poisson:rate=80");
    EXPECT_EXIT(expandArrivalSpecs("poisson,,bursty"),
                ::testing::ExitedWithCode(1), "empty component");
}

TEST(ArrivalSpec, ExpandSloList)
{
    const std::vector<double> slos = expandSloUsList("100, 250,100");
    ASSERT_EQ(slos.size(), 2u);
    EXPECT_EQ(slos[0], 100.0);
    EXPECT_EQ(slos[1], 250.0);
    EXPECT_EXIT(expandSloUsList("100,-5"),
                ::testing::ExitedWithCode(1), "positive");
}

// ---------------------------------------------------------------------------
// Arrival generation

TEST(RequestStream, SeededStreamsAreBitIdentical)
{
    const ArrivalSpec spec = parseArrivalSpec("poisson:rate=200");
    const auto profiles = oneProfile(5'000, 1);
    const std::vector<Request> a =
        generateArrivals(spec, profiles, 1'000'000, 42);
    const std::vector<Request> b =
        generateArrivals(spec, profiles, 1'000'000, 42);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
    const std::vector<Request> c =
        generateArrivals(spec, profiles, 1'000'000, 43);
    EXPECT_NE(a, c);

    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, i);
        EXPECT_LT(a[i].arrivalCycle, 1'000'000u);
        EXPECT_EQ(a[i].deadlineCycle, a[i].arrivalCycle + 5'000);
        EXPECT_EQ(a[i].priority, 1);
        if (i > 0)
            EXPECT_GE(a[i].arrivalCycle, a[i - 1].arrivalCycle);
    }
}

TEST(RequestStream, BurstyArrivalsLandInOnWindows)
{
    const ArrivalSpec spec =
        parseArrivalSpec("bursty:rate=400;on=0.2;period=100000");
    const std::vector<Request> reqs =
        generateArrivals(spec, oneProfile(), 2'000'000, 7);
    ASSERT_GT(reqs.size(), 50u);
    for (const Request &r : reqs)
        EXPECT_LE(static_cast<double>(r.arrivalCycle % 100'000),
                  0.2 * 100'000 + 1)
            << "arrival outside the burst window";
}

TEST(RequestStream, BurstyPreservesLongRunOfferedRate)
{
    // Compressing arrivals into on-windows must not change the
    // long-run offered rate: over a 10-Mcycle horizon at rate 400
    // the expected count is 4000 (stddev ~63), for bursty exactly
    // as for poisson. The old active-time mapping under-delivered
    // by a factor of onFraction — pin the count so it stays fixed.
    const uint64_t horizon = 10'000'000;
    const double expected = 400.0 * 10.0;
    const ArrivalSpec bursty =
        parseArrivalSpec("bursty:rate=400;on=0.25;period=500000");
    const ArrivalSpec poisson = parseArrivalSpec("poisson:rate=400");
    const double nBursty = static_cast<double>(
        generateArrivals(bursty, oneProfile(), horizon, 7).size());
    const double nPoisson = static_cast<double>(
        generateArrivals(poisson, oneProfile(), horizon, 7).size());
    EXPECT_NEAR(nBursty, expected, 0.05 * expected);
    EXPECT_NEAR(nPoisson, expected, 0.05 * expected);

    // Thin on-windows must not erode the rate either.
    const ArrivalSpec thin =
        parseArrivalSpec("bursty:rate=400;on=0.05;period=250000");
    const double nThin = static_cast<double>(
        generateArrivals(thin, oneProfile(), horizon, 7).size());
    EXPECT_NEAR(nThin, expected, 0.05 * expected);
}

TEST(RequestStream, TraceReplaySortsAndOverridesPriority)
{
    const std::string path = tempPath("serving_trace.txt");
    {
        std::ofstream out(path);
        out << "# cycle profileIndex [priority]\n"
            << "500 0\n"
            << "100 1 7\n"
            << "900 0 2\n"
            << "5000000 0\n"; // beyond the horizon: dropped
    }
    ArrivalSpec spec;
    spec.kind = ArrivalKind::Trace;
    spec.tracePath = path;
    std::vector<RequestProfile> profiles(2);
    profiles[1].classIndex = 1;
    profiles[1].priority = 3;

    const std::vector<Request> reqs =
        generateArrivals(spec, profiles, 1'000'000, 0);
    std::remove(path.c_str());
    ASSERT_EQ(reqs.size(), 3u);
    EXPECT_EQ(reqs[0].arrivalCycle, 100u);
    EXPECT_EQ(reqs[0].priority, 7); // traced override
    EXPECT_EQ(reqs[0].classIndex, 1);
    EXPECT_EQ(reqs[1].arrivalCycle, 500u);
    EXPECT_EQ(reqs[2].arrivalCycle, 900u);
    EXPECT_EQ(reqs[2].priority, 2);
    for (size_t i = 0; i < reqs.size(); ++i)
        EXPECT_EQ(reqs[i].id, i);
}

TEST(RequestStream, GenerationIsThreadInvariant)
{
    // The --sweep-threads contract: generating streams and fault
    // events concurrently on every lane yields exactly the serial
    // result — no hidden global state.
    const ArrivalSpec spec =
        parseArrivalSpec("bursty:rate=300;on=0.3;period=250000");
    const auto profiles = oneProfile(10'000);
    FaultPlan plan;
    plan.seed = 9;
    plan.kernelFailPerMcycle = 5.0;
    plan.stallPerMcycle = 2.0;
    plan.memPressurePerMcycle = 1.0;

    const std::vector<Request> serialReqs =
        generateArrivals(spec, profiles, 2'000'000, 11);
    const std::vector<FaultEvent> serialEvents =
        plan.events(2'000'000);

    ThreadPool pool(4);
    // One byte per task: std::vector<bool> packs neighbours into one
    // word, so concurrent writes to it race.
    std::vector<char> match(8, 0);
    pool.parallelFor(match.size(), [&](size_t i, int) {
        match[i] =
            generateArrivals(spec, profiles, 2'000'000, 11) ==
                serialReqs &&
            plan.events(2'000'000) == serialEvents;
    });
    for (size_t i = 0; i < match.size(); ++i)
        EXPECT_TRUE(match[i]) << "lane task " << i << " diverged";
}

// ---------------------------------------------------------------------------
// Fault plans

TEST(FaultPlan, RoundTripsThroughSerialization)
{
    FaultPlan plan;
    plan.name = "custom";
    plan.seed = 1234;
    plan.kernelFailPerMcycle = 1.5;
    plan.stallPerMcycle = 0.75;
    plan.memPressurePerMcycle = 0.25;
    plan.stallCycles = 42'000;
    plan.memPressureCycles = 123'456;
    plan.memPressureFraction = 0.625;
    plan.fixedEvents.push_back(
        FaultEvent{FaultKind::KernelFailure, 5'000, 0, 0.0});
    plan.fixedEvents.push_back(
        FaultEvent{FaultKind::MemPressure, 9'000, 77, 0.5});

    const FaultPlan reparsed = parseFaultPlanText(
        serializeFaultPlan(plan), "round-trip");
    EXPECT_EQ(reparsed, plan);
    EXPECT_EQ(serializeFaultPlan(reparsed),
              serializeFaultPlan(plan));
}

TEST(FaultPlan, ExpansionIsPureAndSorted)
{
    const FaultPlan heavy = resolveFaultPlanSpec("heavy");
    EXPECT_FALSE(heavy.empty());
    const std::vector<FaultEvent> a = heavy.events(10'000'000);
    const std::vector<FaultEvent> b = heavy.events(10'000'000);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
    for (size_t i = 1; i < a.size(); ++i)
        EXPECT_GE(a[i].cycle, a[i - 1].cycle);
    for (const FaultEvent &ev : a)
        EXPECT_LT(ev.cycle, 10'000'000u);

    // A longer horizon extends the stream without rewriting the
    // prefix (per-kind draws are sequential from a fixed fork).
    const std::vector<FaultEvent> longer = heavy.events(20'000'000);
    EXPECT_GT(longer.size(), a.size());

    EXPECT_TRUE(resolveFaultPlanSpec("none").empty());
    EXPECT_TRUE(resolveFaultPlanSpec("none").events(1'000'000)
                    .empty());
}

TEST(FaultPlan, SpecExpansionAndErrors)
{
    const std::vector<std::string> specs =
        expandFaultPlanSpecs("Heavy, none,heavy");
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_EQ(specs[0], "heavy");
    EXPECT_EQ(specs[1], "none");
    EXPECT_EQ(expandFaultPlanSpecs("").size(), 1u); // default none
    EXPECT_EXIT(resolveFaultPlanSpec("catastrophic"),
                ::testing::ExitedWithCode(1), "fault");
    EXPECT_EXIT(parseFaultPlanText("fault.bogus 1\n", "t"),
                ::testing::ExitedWithCode(1), "bogus");
    EXPECT_EXIT(
        parseFaultPlanText("fault.mem_pressure_fraction 1.5\n", "t"),
        ::testing::ExitedWithCode(1), "fraction");

    const FaultPlan fromText = parseFaultPlanText(
        "name t\nfault.event kernel-fail@5000\n"
        "fault.event stall@100@50\n",
        "t");
    ASSERT_EQ(fromText.fixedEvents.size(), 2u);
    EXPECT_EQ(fromText.fixedEvents[0].kind,
              FaultKind::KernelFailure);
    EXPECT_EQ(fromText.fixedEvents[0].cycle, 5'000u);
    EXPECT_EQ(fromText.fixedEvents[1].durationCycles, 50u);
}

// ---------------------------------------------------------------------------
// Batch cost model vs the IR

TEST(ServingScheduler, BatchOffsetsMatchMergedOpGraph)
{
    Rng rng(3);
    Graph g = generateErdosRenyi(40, 120, rng);
    fillFeatures(g, 8, rng);
    ModelConfig cfg;
    cfg.layers = 2;
    cfg.hidden = 8;
    cfg.outDim = 4;
    GnnPipeline a(g, cfg), b(g, cfg);

    auto costsOf = [](const OpGraph &graph) {
        std::vector<uint64_t> costs;
        for (size_t i = 0; i < graph.numNodes(); ++i)
            costs.push_back((i * 37) % 101 + 1);
        return costs;
    };
    const std::vector<uint64_t> costsA = costsOf(a.opGraph());
    const std::vector<uint64_t> costsB = costsOf(b.opGraph());
    const ClassCost ccA =
        classCostFromGraph(a.opGraph(), costsA, "a", 0);
    const ClassCost ccB =
        classCostFromGraph(b.opGraph(), costsB, "b", 0);
    EXPECT_EQ(ccA.serialCycles,
              a.opGraph().serialCost(costsA));

    const OpGraph merged =
        OpGraph::merge({&a.opGraph(), &b.opGraph()});
    std::vector<uint64_t> mergedCosts = costsA;
    mergedCosts.insert(mergedCosts.end(), costsB.begin(),
                       costsB.end());

    for (const int lanes : {1, 2, 4, 7}) {
        const std::vector<uint64_t> finish =
            merged.finishTimes(mergedCosts, lanes);
        uint64_t maxA = 0, maxB = 0;
        for (size_t i = 0; i < costsA.size(); ++i)
            maxA = std::max(maxA, finish[i]);
        for (size_t i = costsA.size(); i < finish.size(); ++i)
            maxB = std::max(maxB, finish[i]);

        const std::vector<uint64_t> offsets =
            batchFinishOffsets({&ccA, &ccB}, lanes);
        ASSERT_EQ(offsets.size(), 2u);
        EXPECT_EQ(offsets[0], maxA) << "lanes=" << lanes;
        EXPECT_EQ(offsets[1], maxB) << "lanes=" << lanes;
        EXPECT_EQ(std::max(offsets[0], offsets[1]),
                  merged.makespan(mergedCosts, lanes));
    }
}

// ---------------------------------------------------------------------------
// The serving loop

TEST(RunServing, CompletesEverythingUnderLightLoad)
{
    const std::vector<ClassCost> classes = {trivialClass(100)};
    std::vector<Request> reqs;
    for (uint64_t i = 0; i < 10; ++i)
        reqs.push_back(requestAt(i, i * 10));
    ServingPolicy policy;
    policy.lanes = 1;
    policy.maxBatch = 4;
    const ServingStats s =
        runServing(policy, classes, reqs, FaultPlan{}, 1'000'000);
    EXPECT_EQ(s.offered, 10u);
    EXPECT_EQ(s.completed, 10u);
    EXPECT_EQ(totalAccounted(s), s.offered);
    EXPECT_EQ(s.retries, 0u);
    EXPECT_EQ(s.sloViolations, 0u);
    EXPECT_GT(s.batches, 1u);
    EXPECT_GT(s.p50LatencyCycles, 0u);
    EXPECT_GE(s.p99LatencyCycles, s.p50LatencyCycles);
    EXPECT_GE(s.maxLatencyCycles, s.p99LatencyCycles);
    EXPECT_EQ(s.goodput(), s.completed);
}

TEST(RunServing, BoundedQueueShedsOverflow)
{
    const std::vector<ClassCost> classes = {trivialClass(100)};
    std::vector<Request> reqs;
    for (uint64_t i = 0; i < 5; ++i)
        reqs.push_back(requestAt(i, 0));
    ServingPolicy policy;
    policy.queueCapacity = 2;
    const ServingStats s =
        runServing(policy, classes, reqs, FaultPlan{}, 1'000);
    EXPECT_EQ(s.shedOverflow, 3u);
    EXPECT_EQ(s.completed, 2u);
    EXPECT_EQ(s.queueDepthPeak, 2u);
    EXPECT_EQ(totalAccounted(s), s.offered);
}

TEST(RunServing, DeadlineAwareShedding)
{
    const std::vector<ClassCost> classes = {trivialClass(1'000)};
    std::vector<Request> reqs;
    reqs.push_back(requestAt(0, 0, 0, 10)); // dispatches, misses SLO
    reqs.push_back(requestAt(1, 1, 0, 11)); // expires in the queue
    ServingPolicy policy;
    policy.maxBatch = 1;
    const ServingStats s =
        runServing(policy, classes, reqs, FaultPlan{}, 10'000);
    EXPECT_EQ(s.completed, 1u);
    EXPECT_EQ(s.shedDeadline, 1u);
    EXPECT_EQ(s.sloViolations, 1u);
    EXPECT_EQ(s.goodput(), 0u);
    EXPECT_EQ(totalAccounted(s), s.offered);
}

TEST(RunServing, KernelFailureRetriesWithBackoff)
{
    const std::vector<ClassCost> classes = {trivialClass(100)};
    FaultPlan plan;
    plan.fixedEvents.push_back(
        FaultEvent{FaultKind::KernelFailure, 50, 0, 0.0});
    ServingPolicy policy;
    policy.maxRetries = 2;
    policy.retryBackoffCycles = 1'000;

    const ServingStats s = runServing(
        policy, classes, {requestAt(0, 0)}, plan, 10'000);
    EXPECT_EQ(s.retries, 1u);
    EXPECT_EQ(s.failed, 0u);
    EXPECT_EQ(s.completed, 1u);
    // Failed at 100, backed off 1000, redispatched at 1100 + 100.
    EXPECT_EQ(s.maxLatencyCycles, 1'200u);
    EXPECT_EQ(totalAccounted(s), s.offered);

    ServingPolicy noRetry = policy;
    noRetry.maxRetries = 0;
    const ServingStats f = runServing(
        noRetry, classes, {requestAt(0, 0)}, plan, 10'000);
    EXPECT_EQ(f.failed, 1u);
    EXPECT_EQ(f.completed, 0u);
    EXPECT_EQ(f.retries, 0u);
    EXPECT_EQ(totalAccounted(f), f.offered);

    // Retry budget exhaustion fails the request even with retries
    // nominally allowed.
    ServingPolicy noBudget = policy;
    noBudget.retryBudget = 0;
    const ServingStats g = runServing(
        noBudget, classes, {requestAt(0, 0)}, plan, 10'000);
    EXPECT_EQ(g.failed, 1u);
    EXPECT_EQ(g.retries, 0u);
}

TEST(RunServing, HugeBackoffSaturatesInsteadOfWrapping)
{
    // retry_backoff_cycles is an unbounded policy-file input; a
    // near-UINT64_MAX backoff must saturate the re-dispatch cycle
    // (the request can then never run again and is shed), not wrap
    // around into the past.
    const std::vector<ClassCost> classes = {trivialClass(100)};
    FaultPlan plan;
    plan.fixedEvents.push_back(
        FaultEvent{FaultKind::KernelFailure, 50, 0, 0.0});
    ServingPolicy policy;
    policy.maxRetries = 100;
    policy.retryBackoffCycles = ~uint64_t{0} - 10;
    const ServingStats s = runServing(
        policy, classes, {requestAt(0, 0)}, plan, 10'000);
    EXPECT_EQ(s.retries, 1u);
    EXPECT_EQ(s.completed, 0u);
    EXPECT_EQ(s.shedDeadline, 1u);
    EXPECT_EQ(totalAccounted(s), s.offered);
}

TEST(RunServing, DeviceStallDelaysCompletion)
{
    const std::vector<ClassCost> classes = {trivialClass(100)};
    FaultPlan plan;
    plan.fixedEvents.push_back(
        FaultEvent{FaultKind::DeviceStall, 50, 100, 0.0});
    ServingPolicy policy;
    const ServingStats s = runServing(
        policy, classes, {requestAt(0, 0)}, plan, 10'000);
    // 50 cycles of work, a 100-cycle stall, the remaining 50.
    EXPECT_EQ(s.completed, 1u);
    EXPECT_EQ(s.maxLatencyCycles, 200u);
    EXPECT_EQ(s.busyCycles, 200u);

    const ServingStats clean = runServing(
        policy, classes, {requestAt(0, 0)}, FaultPlan{}, 10'000);
    EXPECT_EQ(clean.maxLatencyCycles, 100u);
}

TEST(RunServing, MemPressureShrinksBatchesAndDefersDispatch)
{
    // Unlimited budget: pressure still halves the batch cap.
    const std::vector<ClassCost> classes = {trivialClass(100, 60)};
    FaultPlan pressure;
    pressure.fixedEvents.push_back(
        FaultEvent{FaultKind::MemPressure, 0, 10'000, 0.5});
    std::vector<Request> reqs;
    for (uint64_t i = 0; i < 4; ++i)
        reqs.push_back(requestAt(i, 0));
    ServingPolicy policy;
    policy.maxBatch = 4;
    policy.degrade.shrinkBatchUnderPressure = true;
    const ServingStats s =
        runServing(policy, classes, reqs, pressure, 10'000);
    EXPECT_EQ(s.completed, 4u);
    EXPECT_GE(s.shrinkedBatches, 2u);
    EXPECT_EQ(s.batches, 2u);

    // Finite budget: a 0.5-pressure window over a 100-byte budget
    // blocks a 60-byte class until the window ends.
    ServingPolicy tight = policy;
    tight.memBudgetBytes = 100;
    const ServingStats d = runServing(
        tight, classes, {requestAt(0, 0)}, pressure, 20'000);
    EXPECT_EQ(d.completed, 1u);
    EXPECT_EQ(d.maxLatencyCycles, 10'100u); // window end + service
    EXPECT_EQ(totalAccounted(d), d.offered);
}

TEST(RunServing, OversizeRequestsAreShed)
{
    const std::vector<ClassCost> classes = {trivialClass(100, 200)};
    ServingPolicy policy;
    policy.memBudgetBytes = 100;
    const ServingStats s = runServing(
        policy, classes, {requestAt(0, 0)}, FaultPlan{}, 1'000);
    EXPECT_EQ(s.shedOversize, 1u);
    EXPECT_EQ(s.completed, 0u);
    EXPECT_EQ(totalAccounted(s), s.offered);
}

TEST(RunServing, FallbackClassDispatchesUnderDeepQueues)
{
    std::vector<ClassCost> classes = {trivialClass(1'000),
                                      trivialClass(10)};
    classes[0].fallbackClass = 1;
    std::vector<Request> reqs;
    for (uint64_t i = 0; i < 4; ++i)
        reqs.push_back(requestAt(i, 0));
    ServingPolicy policy;
    policy.maxBatch = 1;
    policy.degrade.fallbackQueueDepth = 2;
    const ServingStats s =
        runServing(policy, classes, reqs, FaultPlan{}, 100'000);
    EXPECT_EQ(s.completed, 4u);
    EXPECT_GE(s.fallbackDispatches, 2u);
    // The fallback's 10-cycle cost must show in the latency tail.
    EXPECT_LT(s.maxLatencyCycles, 4u * 1'000u);
}

TEST(RunServing, OverflowEvictsLowestPriorityWhenEnabled)
{
    const std::vector<ClassCost> classes = {trivialClass(1'000)};
    std::vector<Request> reqs;
    reqs.push_back(requestAt(0, 0, 0)); // dispatched immediately
    reqs.push_back(requestAt(1, 5, 0)); // queued, then evicted
    reqs.push_back(requestAt(2, 6, 5)); // high-priority arrival
    ServingPolicy policy;
    policy.queueCapacity = 1;
    policy.maxBatch = 1;
    policy.degrade.shedLowestPriority = true;
    const ServingStats s =
        runServing(policy, classes, reqs, FaultPlan{}, 100'000);
    EXPECT_EQ(s.shedOverflow, 1u);
    EXPECT_EQ(s.completed, 2u);
    EXPECT_EQ(totalAccounted(s), s.offered);

    // Without the degrade mode the high-priority arrival is shed.
    ServingPolicy strict = policy;
    strict.degrade.shedLowestPriority = false;
    const ServingStats t =
        runServing(strict, classes, reqs, FaultPlan{}, 100'000);
    EXPECT_EQ(t.shedOverflow, 1u);
    EXPECT_EQ(t.completed, 2u);
}

TEST(RunServing, StatsAreBitIdenticalAcrossReruns)
{
    const ArrivalSpec spec = parseArrivalSpec("poisson:rate=500");
    const auto profiles = oneProfile(50'000, 1);
    const std::vector<Request> reqs =
        generateArrivals(spec, profiles, 1'000'000, 99);
    const std::vector<ClassCost> classes = {trivialClass(700, 64)};
    const FaultPlan plan = resolveFaultPlanSpec("heavy");
    ServingPolicy policy;
    policy.memBudgetBytes = 1024;

    const ServingStats a =
        runServing(policy, classes, reqs, plan, 1'000'000);
    const ServingStats b =
        runServing(policy, classes, reqs, plan, 1'000'000);
    EXPECT_EQ(a, b);
    EXPECT_EQ(totalAccounted(a), a.offered);
    EXPECT_GT(a.retries + a.failed, 0u)
        << "the heavy plan should perturb this run";
}

// ---------------------------------------------------------------------------
// Serving policy files

TEST(ServingPolicy, RoundTripsThroughSerialization)
{
    ServingPolicy p;
    p.name = "tuned";
    p.lanes = 6;
    p.memBudgetBytes = 123'456'789;
    p.queueCapacity = 17;
    p.maxBatch = 5;
    p.maxRetries = 3;
    p.retryBackoffCycles = 77'000;
    p.retryBudget = 9;
    p.degrade.shrinkBatchUnderPressure = false;
    p.degrade.shedLowestPriority = true;
    p.degrade.fallbackQueueDepth = 4;

    const ServingPolicy q = parseServingPolicyText(
        serializeServingPolicy(p), "round-trip");
    EXPECT_EQ(q, p);
    EXPECT_EQ(serializeServingPolicy(q), serializeServingPolicy(p));
}

TEST(ServingPolicy, SpecResolutionAndErrors)
{
    EXPECT_EQ(resolveServingPolicySpec("default"), ServingPolicy{});
    EXPECT_EXIT(resolveServingPolicySpec("aggressive"),
                ::testing::ExitedWithCode(1), "serving policy");
    EXPECT_EXIT(parseServingPolicyText("serving.lanes 0\n", "t"),
                ::testing::ExitedWithCode(1), "lanes");
    EXPECT_EXIT(
        parseServingPolicyText("serving.typo 1\n", "t"),
        ::testing::ExitedWithCode(1), "unknown serving-policy key");

    const std::string path = tempPath("serving_policy.txt");
    {
        std::ofstream out(path);
        out << serializeServingPolicy(ServingPolicy{});
    }
    const ServingPolicy fromFile =
        resolveServingPolicySpec("file:" + path);
    std::remove(path.c_str());
    EXPECT_EQ(fromFile, ServingPolicy{});
}

// ---------------------------------------------------------------------------
// Watchdog -> RunError::Timeout surfacing

TEST(Watchdog, CycleCeilingFailsPointWithTimeout)
{
    UserParams base;
    base.engine = EngineKind::Sim;
    base.runs = 1;
    base.featureCap = 8;
    base.nodeDivisor = 8;
    base.edgeDivisor = 8;
    base.maxCtas = 64;

    BenchSession::Options opts;
    opts.pointCycleCeiling = 10; // every kernel exceeds this
    const ResultStore store = BenchSession(opts).run(
        SweepSpec{}.base(base));
    ASSERT_EQ(store.size(), 1u);
    const SweepResult &r = store.at(0);
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.errorKind, RunError::Timeout);
    EXPECT_NE(r.error.find("watchdog"), std::string::npos);

    // The taxonomy must surface in both emitters.
    const std::string csvPath = tempPath("serving_watchdog.csv");
    const std::string jsonPath = tempPath("serving_watchdog.json");
    store.toCsv(csvPath);
    store.toJson(jsonPath);
    std::ifstream csv(csvPath), json(jsonPath);
    std::stringstream csvText, jsonText;
    csvText << csv.rdbuf();
    jsonText << json.rdbuf();
    std::remove(csvPath.c_str());
    std::remove(jsonPath.c_str());
    EXPECT_NE(csvText.str().find("error_kind"), std::string::npos);
    EXPECT_NE(csvText.str().find("timeout"), std::string::npos);
    EXPECT_NE(jsonText.str().find("\"error_kind\": \"timeout\""),
              std::string::npos);
}

TEST(Watchdog, UnsetCeilingLeavesRunsUntouched)
{
    UserParams base;
    base.engine = EngineKind::Sim;
    base.runs = 1;
    base.featureCap = 8;
    base.nodeDivisor = 8;
    base.edgeDivisor = 8;
    base.maxCtas = 64;

    const ResultStore plain =
        BenchSession().run(SweepSpec{}.base(base));
    BenchSession::Options opts;
    opts.pointCycleCeiling = 0;
    const ResultStore gated =
        BenchSession(opts).run(SweepSpec{}.base(base));
    ASSERT_TRUE(plain.at(0).ok);
    ASSERT_TRUE(gated.at(0).ok);
    EXPECT_EQ(
        plain.at(0).outcome.metrics.at("graph_makespan_cycles"),
        gated.at(0).outcome.metrics.at("graph_makespan_cycles"));
}
