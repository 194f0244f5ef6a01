/**
 * @file
 * The benchmark's own tests: workload generation is a pure function
 * of the seed, every metric and workload name is well formed, the
 * span self-time arithmetic holds on a synthetic span tree, and the
 * check helpers behave at their edges.
 */

#include <cmath>
#include <cstdio>
#include <set>

#include <gtest/gtest.h>

#include "Checks.hpp"
#include "Metrics.hpp"
#include "Spans.hpp"
#include "Workloads.hpp"
#include "suite/BenchSession.hpp"
#include "suite/Runner.hpp"

using namespace gsuite;
using namespace perfbench;

namespace {

bool
sameGraph(const Graph &a, const Graph &b)
{
    return a.numNodes() == b.numNodes() && a.src == b.src &&
           a.dst == b.dst &&
           DenseMatrix::maxAbsDiff(a.features, b.features) == 0.0;
}

Span
span(double start, double end, int64_t parent)
{
    Span s;
    s.name = "s";
    s.startMs = start;
    s.endMs = end;
    s.parent = parent;
    return s;
}

} // namespace

TEST(Workloads, ExpansionIsAPureFunctionOfTheSeed)
{
    for (const std::string &name : workloadNames()) {
        const Workload a = makeWorkload(name, 7);
        const Workload b = makeWorkload(name, 7);
        ASSERT_EQ(a.points.size(), b.points.size()) << name;
        ASSERT_FALSE(a.points.empty()) << name;
        for (size_t i = 0; i < a.points.size(); ++i) {
            EXPECT_EQ(a.points[i].label, b.points[i].label);
            EXPECT_EQ(a.points[i].params.describe(),
                      b.points[i].params.describe());
            EXPECT_EQ(graphKey(a.points[i].params),
                      graphKey(b.points[i].params));
        }
        const Workload c = makeWorkload(name, 8);
        EXPECT_NE(graphKey(a.points[0].params),
                  graphKey(c.points[0].params))
            << name;
    }
    EXPECT_THROW(makeWorkload("no-such-workload", 7),
                 std::invalid_argument);
}

TEST(Workloads, SameSeedSameGraphsDifferentSeedDifferentGraphs)
{
    // The web-sampled and sim-sweep inputs; hw-profile's graphs come
    // from the same generator (loadDatasetFor) at another scale.
    for (const char *name : {"sim-sweep", "web-sampled"}) {
        const Workload w7 = makeWorkload(name, 7);
        const Workload w8 = makeWorkload(name, 8);
        const Graph a = loadDatasetFor(w7.points[0].params);
        const Graph b = loadDatasetFor(w7.points[0].params);
        const Graph c = loadDatasetFor(w8.points[0].params);
        EXPECT_TRUE(sameGraph(a, b)) << name;
        EXPECT_FALSE(sameGraph(a, c)) << name;
    }
}

TEST(Workloads, SameSeedSameStatistics)
{
    // The first sim-sweep point (GCN-MP on cora) simulated twice.
    const Workload w = makeWorkload("sim-sweep", kDefaultSeed);
    const UserParams &p = w.points[0].params;
    const Graph g = loadDatasetFor(p);
    const RunOutcome a = BenchSession::runPoint(p, g);
    const RunOutcome b = BenchSession::runPoint(p, g);
    ASSERT_FALSE(a.timeline.empty());
    EXPECT_TRUE(a.timeline[0].hasSim);
    EXPECT_TRUE(sameStats(a.timeline, b.timeline));
}

TEST(Names, EveryMetricAndWorkloadNameIsWellFormedAndUnique)
{
    std::set<std::string> seen;
    for (const std::string &n : workloadNames()) {
        EXPECT_TRUE(validMetricName(n)) << n;
        EXPECT_TRUE(seen.insert(n).second) << n;
    }
    seen.clear();
    for (const auto *list : {&endToEndMetrics(), &perLayerMetrics()}) {
        for (const MetricSpec &m : *list) {
            EXPECT_TRUE(validMetricName(m.name)) << m.name;
            EXPECT_TRUE(seen.insert(m.name).second) << m.name;
            EXPECT_TRUE(m.better == "lower" || m.better == "higher");
            EXPECT_FALSE(m.unit.empty());
        }
    }
    EXPECT_EQ(endToEndMetrics()[0].name, "setup_s");
    EXPECT_EQ(endToEndMetrics()[0].unit, "s");
    EXPECT_EQ(endToEndMetrics()[0].better, "lower");
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName("a b"));
    EXPECT_FALSE(validMetricName("simgpu/run"));
}

TEST(Spans, SelfTimeSubtractsTheUnionOfClippedChildren)
{
    // 0: root [0,10]
    //   1: [1,3]   overlaps 2
    //   2: [2,5]
    //     3: [2,4] grandchild: covers 2's time, not the root's
    //   4: [8,12]  runs past the root; clipped to [8,10]
    // 5: second root [20,30], no children
    const std::vector<Span> spans{
        span(0, 10, -1), span(1, 3, 0), span(2, 5, 0),
        span(2, 4, 2),   span(8, 12, 0), span(20, 30, -1)};
    const std::vector<double> self = selfTimesMs(spans);
    ASSERT_EQ(self.size(), spans.size());
    EXPECT_DOUBLE_EQ(self[0], 10.0 - (4.0 + 2.0)); // [1,5] u [8,10]
    EXPECT_DOUBLE_EQ(self[1], 2.0);
    EXPECT_DOUBLE_EQ(self[2], 3.0 - 2.0);
    EXPECT_DOUBLE_EQ(self[3], 2.0);
    EXPECT_DOUBLE_EQ(self[4], 4.0);
    EXPECT_DOUBLE_EQ(self[5], 10.0);

    // Identical parallel children cover their interval once.
    const std::vector<Span> lanes{span(0, 4, -1), span(1, 3, 0),
                                  span(1, 3, 0), span(1, 3, 0)};
    EXPECT_DOUBLE_EQ(selfTimesMs(lanes)[0], 2.0);

    EXPECT_THROW(selfTimesMs({span(0, 1, 5)}), std::out_of_range);
}

TEST(Spans, RecorderNestsAndOrders)
{
    SpanRecorder rec;
    {
        ScopedSpan outer(rec, "engine.point", "", -1, 3);
        ScopedSpan inner(rec, "kernels.execute", "SpMM", outer.id(), 3);
    }
    const std::vector<Span> spans = rec.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].name, "engine.point");
    EXPECT_EQ(spans[1].parent, 0);
    EXPECT_EQ(spans[1].cls, "SpMM");
    EXPECT_EQ(spans[1].point, 3);
    EXPECT_LE(spans[0].startMs, spans[1].startMs);
    EXPECT_GE(spans[0].endMs, spans[1].endMs);
    const std::vector<double> self = selfTimesMs(spans);
    EXPECT_NEAR(self[0] + spans[1].durationMs(), spans[0].durationMs(),
                1e-9);
}

TEST(Checks, OutputErrorIsRelativeAndRejectsShapeAndNan)
{
    DenseMatrix a(2, 2);
    a.at(0, 0) = 4.0f;
    DenseMatrix b = a;
    EXPECT_EQ(outputError(a, b), 0.0);
    b.at(1, 1) = 0.02f;
    EXPECT_NEAR(outputError(b, a), 0.02 / 4.0, 1e-9);
    EXPECT_TRUE(std::isinf(outputError(a, DenseMatrix(2, 3))));
    b.at(0, 1) = std::nanf("");
    EXPECT_TRUE(std::isinf(outputError(b, a)));
}

TEST(Checks, ExpectedRecordRoundTrips)
{
    ExpectedStats stats;
    stats["gcn/mp/cora"] = {{"indexSelect_l0", {1, 2, 3}, 0, {}},
                            {"scatter_l0", {4, 5}, 99, {7, 8, 9, 10}}};
    const std::string path = "perfbench_test_record.tsv"; // in the cwd
    ASSERT_TRUE(writeExpected(path, stats));
    ExpectedStats back;
    ASSERT_TRUE(readExpected(path, back));
    ASSERT_EQ(back.size(), 1u);
    const auto &k = back.at("gcn/mp/cora");
    ASSERT_EQ(k.size(), 2u);
    EXPECT_EQ(k[1].name, "scatter_l0");
    EXPECT_EQ(k[1].digest, (std::vector<uint64_t>{4, 5}));
    EXPECT_EQ(k[1].exactCycles, 99u);
    EXPECT_TRUE(k[0].freshProfile.empty());
    EXPECT_EQ(k[1].freshProfile, (std::vector<uint64_t>{7, 8, 9, 10}));
    std::remove(path.c_str());
    EXPECT_FALSE(readExpected(path, back));
}
