/**
 * @file
 * Randomized (but deterministic-seeded) sweeps: random graphs,
 * shapes and model configurations pushed through the full stack,
 * checking the cross-implementation invariants everywhere —
 * pipeline == reference, MP == SpMM, sparse == dense, and simulator
 * robustness on degenerate launches.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>

#include "engine/ExecutionEngine.hpp"
#include "graph/Generators.hpp"
#include "kernels/Elementwise.hpp"
#include "memplan/MemPlan.hpp"
#include "hwdb/FaultPlan.hpp"
#include "hwdb/HwPresets.hpp"
#include "models/GnnModel.hpp"
#include "models/Reference.hpp"
#include "profiler/HwProfiler.hpp"
#include "serving/RequestStream.hpp"
#include "serving/ServingScheduler.hpp"
#include "simgpu/GpuSimulator.hpp"
#include "simgpu/MemLevel.hpp"
#include "sparse/Convert.hpp"
#include "sparse/SparseOps.hpp"
#include "tensor/Ops.hpp"
#include "util/Random.hpp"

using namespace gsuite;

namespace {

Graph
randomGraph(Rng &rng, int64_t max_nodes = 120, int64_t max_flen = 24)
{
    const int64_t nodes =
        4 + static_cast<int64_t>(rng.nextBelow(
                static_cast<uint64_t>(max_nodes - 4)));
    const int64_t edges =
        1 + static_cast<int64_t>(rng.nextBelow(
                static_cast<uint64_t>(nodes * 4)));
    const int64_t flen =
        1 + static_cast<int64_t>(rng.nextBelow(
                static_cast<uint64_t>(max_flen)));
    Graph g;
    if (rng.nextBool(0.5)) {
        g = generateErdosRenyi(nodes, edges, rng);
    } else {
        RmatParams p;
        p.nodes = nodes;
        p.edges = edges;
        g = generateRmat(p, rng);
    }
    fillFeatures(g, flen, rng);
    return g;
}

/**
 * Linear-scan MSHR table: the straightforward model the incremental
 * MshrTable must agree with on every answer and every entry index.
 */
class ScanMshrTable
{
  public:
    static constexpr uint64_t kPending = MshrTable::kPendingRelease;

    void
    configure(const MshrConfig &c)
    {
        cfg = c;
        entries.assign(static_cast<size_t>(c.entries), Entry{});
    }

    void
    reset()
    {
        for (Entry &e : entries)
            e = Entry{};
    }

    bool
    ready(uint64_t cycle) const
    {
        int busy = 0;
        for (const Entry &e : entries)
            busy += busyAt(e, cycle) ? 1 : 0;
        return busy < cfg.hitUnderMiss;
    }

    uint64_t
    nextRelease(uint64_t cycle) const
    {
        uint64_t next = 0;
        for (const Entry &e : entries) {
            if (!busyAt(e, cycle))
                continue;
            if (e.releaseAt == kPending)
                return kPending;
            next = next ? std::min(next, e.releaseAt) : e.releaseAt;
        }
        return next;
    }

    int
    acquire(uint64_t line, uint64_t &at)
    {
        for (size_t i = 0; i < entries.size(); ++i) {
            Entry &e = entries[i];
            if (busyAt(e, at) && e.line == line &&
                e.merges < cfg.maxMerges) {
                ++e.merges;
                e.releaseAt = kPending;
                return static_cast<int>(i);
            }
        }
        for (;;) {
            for (size_t i = 0; i < entries.size(); ++i) {
                Entry &e = entries[i];
                if (busyAt(e, at))
                    continue;
                e = Entry{line, kPending, 1, true};
                return static_cast<int>(i);
            }
            const uint64_t rel = nextRelease(at);
            if (rel == kPending || rel == 0)
                return -1;
            at = rel;
        }
    }

    void
    release(int entry, uint64_t release_at)
    {
        Entry &e = entries[static_cast<size_t>(entry)];
        e.releaseAt = e.releaseAt == kPending
                          ? release_at
                          : std::max(e.releaseAt, release_at);
    }

    bool
    used(int entry) const
    {
        return entries[static_cast<size_t>(entry)].used;
    }

  private:
    struct Entry {
        uint64_t line = 0;
        uint64_t releaseAt = 0;
        int merges = 0;
        bool used = false;
    };

    std::vector<Entry> entries;
    MshrConfig cfg;

    static bool
    busyAt(const Entry &e, uint64_t cycle)
    {
        return e.used &&
               (e.releaseAt == kPending || e.releaseAt > cycle);
    }
};

/**
 * Array-of-structs cache: the straightforward model the flat Cache
 * must agree with on every hit, ready cycle and victim — its set
 * index masks and its tag divides exactly like the original, so
 * non-power-of-two set counts alias the same way.
 */
class ScanCache
{
  public:
    explicit ScanCache(const CacheGeometry &geometry)
        : geo(geometry), numSets(geometry.numSets()),
          lines(static_cast<size_t>(numSets) *
                static_cast<size_t>(geometry.assoc))
    {
    }

    CacheProbe
    probe(uint64_t addr, uint64_t now)
    {
        Line *line = findLine(addr);
        if (!line)
            return {};
        const int sector = sectorOf(addr);
        if (!(line->sectorValid & (1u << sector)))
            return {};
        line->lastUse = now;
        return {true, line->sectorReady[sector]};
    }

    void
    fill(uint64_t addr, uint64_t now, uint64_t ready)
    {
        Line *line = findLine(addr);
        if (!line) {
            // Evict the LRU way of the set.
            Line *set = &lines[static_cast<size_t>(setOf(addr)) *
                               static_cast<size_t>(geo.assoc)];
            line = &set[0];
            for (int w = 1; w < geo.assoc; ++w) {
                if (set[w].tag == kInvalidTag) {
                    line = &set[w];
                    break;
                }
                if (set[w].lastUse < line->lastUse)
                    line = &set[w];
            }
            line->tag = tagOf(addr);
            line->sectorValid = 0;
        }
        const int sector = sectorOf(addr);
        line->sectorValid |= 1u << sector;
        line->sectorReady[sector] = ready;
        line->lastUse = now;
    }

    void
    flush()
    {
        for (auto &line : lines)
            line = Line{};
    }

  private:
    static constexpr uint64_t kInvalidTag = ~uint64_t{0};
    static constexpr int kMaxSectors = 8;

    struct Line {
        uint64_t tag = kInvalidTag;
        uint32_t sectorValid = 0;
        uint64_t sectorReady[kMaxSectors] = {};
        uint64_t lastUse = 0;
    };

    CacheGeometry geo;
    int numSets;
    std::vector<Line> lines; ///< numSets x assoc

    uint64_t
    tagOf(uint64_t addr) const
    {
        return addr / static_cast<uint64_t>(geo.lineBytes) /
               static_cast<uint64_t>(numSets);
    }

    int
    setOf(uint64_t addr) const
    {
        return static_cast<int>(
            (addr / static_cast<uint64_t>(geo.lineBytes)) &
            static_cast<uint64_t>(numSets - 1));
    }

    int
    sectorOf(uint64_t addr) const
    {
        return static_cast<int>(
            (addr % static_cast<uint64_t>(geo.lineBytes)) /
            static_cast<uint64_t>(geo.sectorBytes));
    }

    Line *
    findLine(uint64_t addr)
    {
        const uint64_t tag = tagOf(addr);
        Line *set = &lines[static_cast<size_t>(setOf(addr)) *
                           static_cast<size_t>(geo.assoc)];
        for (int w = 0; w < geo.assoc; ++w) {
            if (set[w].tag == tag)
                return &set[w];
        }
        return nullptr;
    }
};

} // namespace

class FuzzSeeds : public ::testing::TestWithParam<uint64_t>
{
};

/**
 * The flat Cache against the array-of-structs model on every
 * geometry the suite builds: each hwdb preset's L1 and L2 slice, and
 * the profiler's default L1 and 3072-set L2 (whose masked set index
 * aliases line 1024 onto line 0). Random probe / fill / access /
 * flush streams over a few conflicting sets, with non-monotone
 * times, fills at cycle 0 and LRU ties. Every hit and ready cycle
 * must match.
 */
TEST_P(FuzzSeeds, CacheMatchesArrayOfStructsOracle)
{
    std::vector<std::pair<std::string, CacheGeometry>> geos;
    for (const HwPreset &p : hwPresets()) {
        CacheGeometry slice = p.config.l2;
        slice.sizeBytes /= static_cast<uint64_t>(p.config.numL2Slices);
        geos.push_back({p.name + " L1", p.config.l1d});
        geos.push_back({p.name + " L2 slice", slice});
    }
    const HwProfilerConfig prof;
    geos.push_back({"profiler L1", prof.l1});
    geos.push_back({"profiler L2", prof.l2});

    Rng rng(GetParam() * 7919 + 3);
    for (const auto &[name, geo] : geos) {
        SCOPED_TRACE(name);
        Cache cache(geo);
        ScanCache oracle(geo);
        const uint64_t sets = static_cast<uint64_t>(geo.numSets());
        const uint64_t line_bytes = static_cast<uint64_t>(geo.lineBytes);
        // A few home sets, each with more candidate lines than ways;
        // the 1024-line stride exercises the masked-index aliasing.
        const uint64_t homes[3] = {0, rng.nextBelow(sets),
                                   rng.nextBelow(sets)};
        const uint64_t per_set =
            static_cast<uint64_t>(geo.assoc) + 1 + rng.nextBelow(4);
        uint64_t now = 50;
        for (int op = 0; op < 2000; ++op) {
            SCOPED_TRACE(testing::Message() << "op " << op);
            const uint64_t home = homes[rng.nextBelow(3)];
            const uint64_t line =
                rng.nextBool(0.2)
                    ? home + 1024 * rng.nextBelow(4)
                    : home + sets * rng.nextBelow(per_set);
            const uint64_t addr =
                line * line_bytes +
                rng.nextBelow(line_bytes); // any sector, any byte
            now += rng.nextBelow(3);
            uint64_t at = now;
            const uint64_t pick = rng.nextBelow(10);
            if (pick == 0)
                at = 0; // a fill or touch at cycle 0
            else if (pick < 3)
                at = now > 30 ? now - rng.nextBelow(30) : now; // ties
            const uint64_t kind = rng.nextBelow(100);
            if (kind < 40) {
                const CacheProbe a = cache.probe(addr, at);
                const CacheProbe b = oracle.probe(addr, at);
                ASSERT_EQ(a.hit, b.hit);
                if (a.hit) {
                    ASSERT_EQ(a.ready, b.ready);
                }
            } else if (kind < 75) {
                const uint64_t ready = at + rng.nextBelow(400);
                cache.fill(addr, at, ready);
                oracle.fill(addr, at, ready);
            } else if (kind < 99 || rng.nextBool(0.5)) {
                const bool fill = rng.nextBool(0.7);
                const bool hit = oracle.probe(addr, at).hit;
                if (!hit && fill)
                    oracle.fill(addr, at, at);
                ASSERT_EQ(cache.access(addr, at, fill), hit);
            } else {
                cache.flush();
                oracle.flush();
            }
        }
        // Every candidate line of the home sets, one last time.
        for (const uint64_t home : homes)
            for (uint64_t k = 0; k < per_set; ++k)
                ASSERT_EQ(cache.probe((home + sets * k) * line_bytes,
                                      now)
                              .hit,
                          oracle.probe((home + sets * k) * line_bytes,
                                       now)
                              .hit);
    }
}

/**
 * The incremental MshrTable against the linear-scan model under
 * random operation sequences: non-monotone access times (an L2 table
 * sees out-of-order `at` values within one cycle), a small line pool
 * that saturates the merge cap, releases that extend known release
 * cycles, and resets. Every answer and entry index must match.
 */
TEST_P(FuzzSeeds, MshrTableMatchesLinearScanOracle)
{
    Rng rng(GetParam() * 977 + 11);
    MshrConfig cfg;
    cfg.entries = 1 + static_cast<int>(rng.nextBelow(
                          rng.nextBool(0.3) ? 130 : 12));
    cfg.maxMerges = 1 + static_cast<int>(rng.nextBelow(4));
    cfg.hitUnderMiss =
        1 + static_cast<int>(
                rng.nextBelow(static_cast<uint64_t>(cfg.entries)));
    SCOPED_TRACE(testing::Message()
                 << "entries " << cfg.entries << " merges "
                 << cfg.maxMerges << " hum " << cfg.hitUnderMiss);
    MshrTable table;
    ScanMshrTable oracle;
    table.configure(cfg);
    oracle.configure(cfg);

    const uint64_t lines =
        1 + rng.nextBelow(static_cast<uint64_t>(cfg.entries) + 4);
    uint64_t now = 100;
    auto some_time = [&] { return now - 40 + rng.nextBelow(120); };
    std::vector<int> claimed;
    for (int op = 0; op < 4000; ++op) {
        SCOPED_TRACE(testing::Message() << "op " << op);
        now += rng.nextBelow(3);
        const uint64_t kind = rng.nextBelow(100);
        if (kind < 8) {
            // A burst on one line past the merge cap: the line ends up
            // in several entries, and every later merge must pick the
            // lowest-index one still under the cap.
            const uint64_t line = rng.nextBelow(lines);
            const int burst =
                2 + static_cast<int>(rng.nextBelow(
                        static_cast<uint64_t>(3 * cfg.maxMerges)));
            for (int b = 0; b < burst; ++b) {
                uint64_t at = some_time();
                uint64_t oracle_at = at;
                const int got = table.acquire(line, at);
                ASSERT_EQ(got, oracle.acquire(line, oracle_at));
                ASSERT_EQ(at, oracle_at);
                if (got >= 0)
                    claimed.push_back(got);
                if (got >= 0 && rng.nextBool(0.3)) {
                    const uint64_t when = now + rng.nextBelow(60);
                    table.release(got, when);
                    oracle.release(got, when);
                }
            }
        } else if (kind < 40) {
            const uint64_t line = rng.nextBelow(lines);
            uint64_t at = some_time();
            uint64_t oracle_at = at;
            const int got = table.acquire(line, at);
            ASSERT_EQ(got, oracle.acquire(line, oracle_at));
            ASSERT_EQ(at, oracle_at);
            if (got >= 0)
                claimed.push_back(got);
        } else if (kind < 70) {
            if (claimed.empty())
                continue;
            const size_t pick = static_cast<size_t>(
                rng.nextBelow(claimed.size()));
            const int entry = claimed[pick];
            // Usually retire the claim; sometimes release it again
            // (a merged fill extending a known release).
            if (rng.nextBool(0.8)) {
                claimed[pick] = claimed.back();
                claimed.pop_back();
            }
            ASSERT_TRUE(oracle.used(entry));
            const uint64_t when = now + rng.nextBelow(200);
            table.release(entry, when);
            oracle.release(entry, when);
        } else if (kind < 85) {
            const uint64_t c = some_time();
            ASSERT_EQ(table.ready(c), oracle.ready(c)) << "cycle " << c;
        } else if (kind < 99) {
            const uint64_t c = some_time();
            ASSERT_EQ(table.nextRelease(c), oracle.nextRelease(c))
                << "cycle " << c;
        } else {
            table.reset();
            oracle.reset();
            claimed.clear();
        }
    }
}

TEST_P(FuzzSeeds, RandomPipelineMatchesReference)
{
    Rng rng(GetParam());
    const Graph g = randomGraph(rng);

    ModelConfig cfg;
    const GnnModelKind models[] = {GnnModelKind::Gcn,
                                   GnnModelKind::Gin,
                                   GnnModelKind::Sage,
                                   GnnModelKind::Gat};
    cfg.model = models[rng.nextBelow(4)];
    cfg.comp = (cfg.model == GnnModelKind::Sage ||
                cfg.model == GnnModelKind::Gat || rng.nextBool(0.5))
                   ? CompModel::Mp
                   : CompModel::Spmm;
    cfg.layers = 1 + static_cast<int>(rng.nextBelow(3));
    cfg.hidden = 1 + static_cast<int>(rng.nextBelow(24));
    cfg.outDim = 1 + static_cast<int>(rng.nextBelow(12));
    cfg.seed = GetParam() * 31 + 7;

    FunctionalEngine engine;
    GnnPipeline p(g, cfg);
    p.run(engine);
    const DenseMatrix ref = referenceForward(g, cfg, p.weights());
    EXPECT_LT(DenseMatrix::maxAbsDiff(p.output(), ref), 5e-3)
        << "seed=" << GetParam() << " model="
        << gnnModelName(cfg.model) << " comp="
        << compModelName(cfg.comp) << " layers=" << cfg.layers
        << " " << g.summary();
}

TEST_P(FuzzSeeds, RandomSpgemmMatchesDense)
{
    Rng rng(GetParam() ^ 0xabcdef);
    const int64_t m = 1 + rng.nextBelow(40);
    const int64_t k = 1 + rng.nextBelow(40);
    const int64_t n = 1 + rng.nextBelow(40);
    const double density = rng.nextDouble() * 0.4;
    SparseBuilder ba(m, k), bb(k, n);
    for (int64_t r = 0; r < m; ++r)
        for (int64_t c = 0; c < k; ++c)
            if (rng.nextBool(density))
                ba.add(r, c, rng.nextFloat(-2.0f, 2.0f));
    for (int64_t r = 0; r < k; ++r)
        for (int64_t c = 0; c < n; ++c)
            if (rng.nextBool(density))
                bb.add(r, c, rng.nextFloat(-2.0f, 2.0f));
    const CsrMatrix a = ba.finish();
    const CsrMatrix b = bb.finish();
    DenseMatrix ref;
    gemm(csrToDense(a), csrToDense(b), ref);
    EXPECT_LT(
        DenseMatrix::maxAbsDiff(csrToDense(spgemm(a, b)), ref),
        1e-3)
        << "seed=" << GetParam();
}

TEST_P(FuzzSeeds, RandomSimulatedPipelineIsConsistent)
{
    Rng rng(GetParam() ^ 0x5eed);
    const Graph g = randomGraph(rng, 60, 12);
    ModelConfig cfg;
    cfg.model =
        rng.nextBool(0.5) ? GnnModelKind::Gcn : GnnModelKind::Gin;
    cfg.comp =
        rng.nextBool(0.5) ? CompModel::Mp : CompModel::Spmm;
    cfg.layers = 1 + static_cast<int>(rng.nextBelow(2));
    cfg.hidden = 1 + static_cast<int>(rng.nextBelow(16));

    SimEngine::Options opts;
    opts.gpu = GpuConfig::testTiny();
    opts.gpu.smSampleFactor = 1;
    opts.sim.maxCtas = 64;
    SimEngine engine(opts);
    GnnPipeline p(g, cfg);
    p.run(engine);

    for (const auto &rec : engine.timeline()) {
        const KernelStats &s = rec.sim;
        EXPECT_GT(s.cycles, 0u) << rec.name;
        EXPECT_GT(s.warpInstrs, 0u) << rec.name;
        // Shares are well-formed probabilities.
        double occ = 0;
        for (int b = 0; b < kNumOccBuckets; ++b)
            occ += s.occShare(static_cast<OccBucket>(b));
        EXPECT_NEAR(occ, 1.0, 1e-9) << rec.name;
        double stall = 0;
        for (int r = 0; r < kNumStallReasons; ++r)
            stall += s.stallShare(static_cast<StallReason>(r));
        EXPECT_NEAR(stall, 1.0, 1e-9) << rec.name;
        EXPECT_LE(s.l1HitRate(), 1.0);
        EXPECT_LE(s.l2HitRate(), 1.0);
        EXPECT_LE(s.computeUtilization(), 1.0 + 1e-9);
    }
}

namespace {

/**
 * A synthetic launch with randomized warp latency patterns: ALU
 * chains with random dependency distances, SFU ops, shared-memory
 * traffic, divergent global loads/stores, contended atomics, CTA
 * barriers and control flow. The group *sequence* is derived from
 * (seed, cta) so every warp of a CTA executes the same number of
 * barriers; addresses and masks vary per warp.
 */
KernelLaunch
randomLatencyLaunch(uint64_t seed)
{
    Rng shape_rng(seed * 977 + 5);
    KernelLaunch l;
    l.name = "fuzz_latency";
    l.dims.numCtas =
        2 + static_cast<int64_t>(shape_rng.nextBelow(10));
    l.dims.threadsPerCta =
        32 * (1 + static_cast<int>(shape_rng.nextBelow(4)));
    l.streamTrace = [seed](int64_t cta, int warp) {
        return WarpTraceStream([=](TraceBuilder &b) {
            Rng cta_rng(seed ^ (0x9e37ull * static_cast<uint64_t>(cta)));
            Rng warp_rng(seed ^
                         (0x85ebull * static_cast<uint64_t>(cta * 64 +
                                                            warp)));
            const int groups =
                4 + static_cast<int>(cta_rng.nextBelow(24));
            std::array<Reg, 4> recent{kNoReg, kNoReg, kNoReg, kNoReg};
            size_t nrecent = 0;
            auto dep = [&]() -> Reg {
                if (nrecent == 0 || warp_rng.nextBool(0.3))
                    return kNoReg;
                return recent[warp_rng.nextBelow(nrecent)];
            };
            auto lanes = [&]() -> uint32_t {
                return maskOfLanes(
                    1 + static_cast<int>(warp_rng.nextBelow(32)));
            };
            std::array<uint64_t, 32> a{};
            auto fill_addrs = [&](uint64_t base, uint64_t spread) {
                for (int i = 0; i < 32; ++i)
                    a[static_cast<size_t>(i)] =
                        base + warp_rng.nextBelow(spread) * 4;
            };
            for (int g = 0; g < groups; ++g) {
                // The group kind comes from the CTA stream so warps
                // stay barrier-compatible; operands stay per-warp.
                const uint64_t kind = cta_rng.nextBelow(8);
                switch (kind) {
                  case 0: { // ALU chain with random dep distance
                    const int len =
                        1 + static_cast<int>(warp_rng.nextBelow(6));
                    for (int i = 0; i < len; ++i) {
                        const Reg r =
                            b.alu(warp_rng.nextBool(0.8) ? Op::FP32
                                                         : Op::INT,
                                  dep(), dep(), lanes());
                        recent[nrecent % recent.size()] = r;
                        nrecent = std::min(nrecent + 1, recent.size());
                    }
                    break;
                  }
                  case 1: // SFU (long fixed latency)
                    b.alu(Op::SFU, dep(), kNoReg, lanes());
                    break;
                  case 2: // shared-memory round trip
                    b.sharedStore(b.sharedLoad(lanes()), lanes());
                    break;
                  case 3: { // divergent global load feeding ALU
                    fill_addrs(0x10000, 4096);
                    const Reg r = b.load(
                        {a.data(),
                         1 + warp_rng.nextBelow(32)});
                    b.alu(Op::FP32, r, dep(), lanes());
                    recent[0] = r;
                    nrecent = std::max<size_t>(nrecent, 1);
                    break;
                  }
                  case 4: // global store
                    fill_addrs(0x40000, 2048);
                    b.store({a.data(), 1 + warp_rng.nextBelow(16)},
                            dep());
                    break;
                  case 5: { // contended atomic
                    fill_addrs(0x80000, 8);
                    const Reg v = b.alu(Op::FP32, dep());
                    b.atomic({a.data(), 1 + warp_rng.nextBelow(32)},
                             v);
                    break;
                  }
                  case 6: // CTA barrier (uniform across the CTA)
                    b.barrier();
                    break;
                  default:
                    b.control(lanes());
                    break;
                }
            }
            b.exit();
            return true;
        });
    };
    return l;
}

} // namespace

/**
 * Cycle-skip soundness: random warp latency patterns must never let
 * an SM fast-forward past a cycle where a warp becomes ready. The
 * skip logic replays the last classification (per-SM idleUntil and
 * the simulator's global stall skip); if it ever overshot, cycles,
 * stall attribution and the memory-system interleaving would all
 * drift from the unskipped per-cycle stepping — so bit-equality of
 * every counter against the skip-disabled reference run is the
 * property. Checked on both issue paths (SoA fast and per-warp
 * reference), which must also agree with each other.
 */
TEST_P(FuzzSeeds, CycleSkipNeverOvershootsWarpWakeup)
{
    const KernelLaunch launch = randomLatencyLaunch(GetParam());

    GpuConfig cfg = GpuConfig::testTiny();
    cfg.smSampleFactor = 1;
    cfg.scheduler = GetParam() % 2 == 0 ? SchedulerPolicy::Gto
                                        : SchedulerPolicy::Lrr;
    GpuConfig ref_cfg = cfg;
    ref_cfg.referenceIssue = true;

    auto run = [&](const GpuConfig &c, bool skip) {
        SimOptions opts;
        opts.maxCtas = 32;
        opts.numThreads = 1;
        opts.perSmFastForward = skip;
        GpuSimulator sim(c);
        return sim.run(launch, opts);
    };

    const KernelStats fast_skip = run(cfg, true);
    const KernelStats fast_step = run(cfg, false);
    const KernelStats ref_skip = run(ref_cfg, true);
    const KernelStats ref_step = run(ref_cfg, false);

    auto expect_same = [&](const KernelStats &x,
                           const KernelStats &y,
                           bool across_skip_modes) {
        EXPECT_EQ(x.cycles, y.cycles);
        EXPECT_EQ(x.warpInstrs, y.warpInstrs);
        EXPECT_EQ(x.threadInstrs, y.threadInstrs);
        for (size_t i = 0; i < x.stallCycles.size(); ++i) {
            const auto r = static_cast<StallReason>(i);
            if (across_skip_modes &&
                (r == StallReason::MemoryDependency ||
                 r == StallReason::ExecutionDependency))
                continue; // compared as a sum below
            EXPECT_EQ(x.stallCycles[i], y.stallCycles[i])
                << "stall " << i;
        }
        // Replay attributes a whole fast-forward window to the
        // classification at window entry; a dependency stall whose
        // blocking source mix changes mid-window may swap between
        // the memory and execution classes relative to per-cycle
        // stepping. The dependency-stalled cycle *total* must not
        // move, and the skip must never change timing or traffic.
        const auto mem =
            static_cast<size_t>(StallReason::MemoryDependency);
        const auto exe =
            static_cast<size_t>(StallReason::ExecutionDependency);
        EXPECT_EQ(x.stallCycles[mem] + x.stallCycles[exe],
                  y.stallCycles[mem] + y.stallCycles[exe]);
        for (size_t i = 0; i < x.occCycles.size(); ++i)
            EXPECT_EQ(x.occCycles[i], y.occCycles[i])
                << "occ " << i;
        EXPECT_EQ(x.l1Hits, y.l1Hits);
        EXPECT_EQ(x.l1Misses, y.l1Misses);
        EXPECT_EQ(x.l2Hits, y.l2Hits);
        EXPECT_EQ(x.l2Misses, y.l2Misses);
        EXPECT_EQ(x.memSectors, y.memSectors);
        EXPECT_EQ(x.dramBytes, y.dramBytes);
        EXPECT_EQ(x.aluBusyCycles, y.aluBusyCycles);
        EXPECT_EQ(x.schedulerSlots, y.schedulerSlots);
        EXPECT_EQ(x.traceBytesPeak, y.traceBytesPeak);
    };

    {
        SCOPED_TRACE("fast: skip vs per-cycle");
        expect_same(fast_skip, fast_step, true);
    }
    {
        SCOPED_TRACE("reference: skip vs per-cycle");
        expect_same(ref_skip, ref_step, true);
    }
    {
        SCOPED_TRACE("fast vs reference (skip on)");
        expect_same(fast_skip, ref_skip, false);
    }
    {
        SCOPED_TRACE("fast vs reference (per-cycle)");
        expect_same(fast_step, ref_step, false);
    }
    // The workload must actually exercise skipping for the property
    // to mean anything.
    EXPECT_GT(fast_skip.fastForwardCycles, 0u)
        << "seed produced no fast-forward window";
}

/**
 * Memory-hierarchy config fuzz: random-walk the MSHR / DRAM-bank /
 * queue knobs across their legal ranges and require (a) the SoA fast
 * issue path to stay bit-identical to the reference path, (b) reruns
 * and worker-thread counts to be bit-identical — back-pressure from
 * tiny MSHR tables and single-entry DRAM queues exercises the parked
 * multi-cycle retry protocol far harder than any preset does.
 */
TEST_P(FuzzSeeds, RandomMemHierarchyConfigsStayDeterministic)
{
    const uint64_t seed = GetParam();
    Rng rng(seed * 131 + 3);

    GpuConfig cfg = GpuConfig::testTiny();
    cfg.smSampleFactor = 1;
    cfg.l1Mshr.entries = 1 + static_cast<int>(rng.nextBelow(8));
    cfg.l1Mshr.maxMerges = 1 + static_cast<int>(rng.nextBelow(4));
    cfg.l1Mshr.hitUnderMiss =
        1 + static_cast<int>(
                rng.nextBelow(static_cast<uint64_t>(
                    cfg.l1Mshr.entries)));
    cfg.l2Mshr.entries = 1 + static_cast<int>(rng.nextBelow(16));
    cfg.l2Mshr.maxMerges = 1 + static_cast<int>(rng.nextBelow(4));
    cfg.l2Mshr.hitUnderMiss =
        1 + static_cast<int>(
                rng.nextBelow(static_cast<uint64_t>(
                    cfg.l2Mshr.entries)));
    cfg.dram.numBanks = 1 << rng.nextBelow(4);
    cfg.dram.rowBytes = 128 << rng.nextBelow(4);
    cfg.dram.tRcd = 1 + static_cast<int>(rng.nextBelow(20));
    cfg.dram.tRas = 1 + static_cast<int>(rng.nextBelow(40));
    cfg.dram.tRp = 1 + static_cast<int>(rng.nextBelow(20));
    cfg.dram.tCcd = 1 + static_cast<int>(rng.nextBelow(4));
    cfg.dram.scheduler = rng.nextBool(0.5)
                             ? DramSchedPolicy::Frfcfs
                             : DramSchedPolicy::Fcfs;
    cfg.dram.schedQueueSize =
        1 + static_cast<int>(rng.nextBelow(16));
    cfg.validate();
    GpuConfig ref_cfg = cfg;
    ref_cfg.referenceIssue = true;

    const KernelLaunch launch = randomLatencyLaunch(seed ^ 0xd3a);
    auto run = [&](const GpuConfig &c, int threads) {
        SimOptions opts;
        opts.maxCtas = 24;
        opts.numThreads = threads;
        GpuSimulator sim(c);
        return sim.run(launch, opts);
    };

    const KernelStats base = run(cfg, 1);
    auto expect_identical = [&](const KernelStats &x,
                                const KernelStats &y) {
        EXPECT_EQ(x.cycles, y.cycles);
        EXPECT_EQ(x.warpInstrs, y.warpInstrs);
        EXPECT_EQ(x.threadInstrs, y.threadInstrs);
        for (size_t i = 0; i < x.stallCycles.size(); ++i) {
            EXPECT_EQ(x.stallCycles[i], y.stallCycles[i])
                << "stall " << i;
        }
        for (size_t i = 0; i < x.occCycles.size(); ++i) {
            EXPECT_EQ(x.occCycles[i], y.occCycles[i])
                << "occ " << i;
        }
        EXPECT_EQ(x.l1Hits, y.l1Hits);
        EXPECT_EQ(x.l1Misses, y.l1Misses);
        EXPECT_EQ(x.l2Hits, y.l2Hits);
        EXPECT_EQ(x.l2Misses, y.l2Misses);
        EXPECT_EQ(x.memInstrs, y.memInstrs);
        EXPECT_EQ(x.memSectors, y.memSectors);
        EXPECT_EQ(x.dramBytes, y.dramBytes);
        EXPECT_EQ(x.dramRowHits, y.dramRowHits);
        EXPECT_EQ(x.dramRowMisses, y.dramRowMisses);
        EXPECT_EQ(x.dramQueuePeak, y.dramQueuePeak);
        EXPECT_EQ(x.dramBusyCycles, y.dramBusyCycles);
        EXPECT_EQ(x.aluBusyCycles, y.aluBusyCycles);
        EXPECT_EQ(x.schedulerSlots, y.schedulerSlots);
    };
    {
        SCOPED_TRACE("rerun");
        expect_identical(base, run(cfg, 1));
    }
    {
        SCOPED_TRACE("4 worker threads");
        expect_identical(base, run(cfg, 4));
    }
    {
        SCOPED_TRACE("reference issue path");
        expect_identical(base, run(ref_cfg, 1));
    }
}

/**
 * CTA-sampled extrapolation soundness on random launches: for grids
 * with random shapes and skewed per-CTA cost, the est_* / err_*
 * intervals of the work and cycle counters must contain the full
 * run's exact values, and the sampled run must be deterministic.
 */
TEST_P(FuzzSeeds, SampledSimBoundsContainTheFullRun)
{
    const uint64_t seed = GetParam();
    Rng rng(seed * 769 + 29);

    KernelLaunch l;
    l.name = "fuzz_sampled_" + std::to_string(seed);
    l.dims.numCtas =
        96 + static_cast<int64_t>(rng.nextBelow(320));
    l.dims.threadsPerCta =
        32 * (1 + static_cast<int>(rng.nextBelow(2)));
    const uint64_t body = seed ^ 0xbeefULL;
    const int64_t period = 7 + static_cast<int64_t>(rng.nextBelow(14));
    l.streamTrace = [body, period](int64_t cta, int warp) {
        return WarpTraceStream([=](TraceBuilder &b) {
            Rng wr(body ^ (0x9e37ULL *
                           static_cast<uint64_t>(cta * 64 + warp)));
            std::array<uint64_t, 32> a{};
            for (int i = 0; i < 32; ++i)
                a[static_cast<size_t>(i)] =
                    0x100000ull + wr.nextBelow(1 << 16) * 32ull;
            const Reg r = b.load({a.data(), 32});
            b.alu(Op::FP32, r);
            // Cost skew: CTAs cycle through `period` work levels.
            b.aluChain(Op::INT,
                       2 + static_cast<int>(cta % period) * 3);
            b.exit();
            return true;
        });
    };
    l.ctaCostHint = [period](int64_t cta) -> uint64_t {
        return 4 + static_cast<uint64_t>(cta % period) * 3;
    };

    GpuConfig cfg = GpuConfig::testTiny();
    cfg.smSampleFactor = 1;
    const KernelStats full = GpuSimulator(cfg).run(l);
    ASSERT_EQ(full.ctasSimulated, l.dims.numCtas);

    cfg.sampleMode = CtaSampleMode::Cta;
    cfg.sampleFraction = 0.25;
    cfg.sampleMinCtas = 8;
    cfg.sampleSeed = seed;
    const KernelStats st = GpuSimulator(cfg).run(l);
    ASSERT_GT(st.sampledCtas, 0) << "sampling did not engage";
    ASSERT_LT(st.ctasSimulated, full.ctasSimulated);

    const StatSet truth = full.toStatSet();
    for (const char *name :
         {"cycles", "warp_instrs", "thread_instrs", "mem_instrs",
          "mem_sectors"}) {
        const double est = st.estimate(name);
        const double err = st.estimateErr(name);
        EXPECT_LE(std::abs(est - truth.get(name)), err)
            << "seed " << seed << " counter " << name << ": est "
            << est << " +- " << err << " vs full "
            << truth.get(name);
    }
    // Warp counts expand exactly.
    EXPECT_DOUBLE_EQ(st.estimate("warps"),
                     static_cast<double>(full.warpsSimulated));

    // Rerun determinism of the sampled path.
    const KernelStats again = GpuSimulator(cfg).run(l);
    EXPECT_EQ(st.cycles, again.cycles);
    ASSERT_EQ(st.estimates.size(), again.estimates.size());
    for (size_t i = 0; i < st.estimates.size(); ++i)
        EXPECT_EQ(st.estimates[i].est, again.estimates[i].est)
            << st.estimates[i].name;
}

TEST_P(FuzzSeeds, RandomFaultPlansNeverDeadlockTheScheduler)
{
    // Random plans, policies and request mixes must always drain:
    // runServing terminates (bounded batches, monotone time) and
    // accounts for every request exactly once. A lost or
    // double-counted request is how a serving loop deadlocks or
    // spins, so the identity is the liveness oracle.
    Rng rng(GetParam() * 977 + 13);

    std::vector<ClassCost> classes;
    const size_t numClasses = 1 + rng.nextBelow(3);
    for (size_t c = 0; c < numClasses; ++c) {
        ClassCost cls;
        cls.name = "c" + std::to_string(c);
        const size_t nodes = 1 + rng.nextBelow(6);
        for (size_t n = 0; n < nodes; ++n) {
            cls.nodeCycles.push_back(rng.nextBelow(5'000));
            std::vector<int> preds;
            if (n > 0 && rng.nextBool(0.6))
                preds.push_back(
                    static_cast<int>(rng.nextBelow(n)));
            cls.preds.push_back(preds);
            cls.serialCycles += cls.nodeCycles.back();
        }
        cls.memBytes = rng.nextBelow(256);
        if (c > 0 && rng.nextBool(0.5))
            cls.fallbackClass = static_cast<int>(rng.nextBelow(c));
        classes.push_back(cls);
    }

    FaultPlan plan;
    plan.name = "fuzz";
    plan.seed = GetParam();
    plan.kernelFailPerMcycle = rng.nextDouble() * 50.0;
    plan.stallPerMcycle = rng.nextDouble() * 20.0;
    plan.memPressurePerMcycle = rng.nextDouble() * 10.0;
    plan.stallCycles = 1 + rng.nextBelow(30'000);
    plan.memPressureCycles = 1 + rng.nextBelow(100'000);
    plan.memPressureFraction = rng.nextDouble();
    plan.fixedEvents.push_back(FaultEvent{
        FaultKind::KernelFailure, rng.nextBelow(500'000), 0, 0.0});
    plan.validate();

    ServingPolicy policy;
    policy.lanes = 1 + static_cast<int>(rng.nextBelow(6));
    policy.memBudgetBytes =
        rng.nextBool(0.5) ? 0 : 64 + rng.nextBelow(512);
    policy.queueCapacity = 1 + static_cast<int>(rng.nextBelow(32));
    policy.maxBatch = 1 + static_cast<int>(rng.nextBelow(8));
    policy.maxRetries = static_cast<int>(rng.nextBelow(4));
    policy.retryBackoffCycles = 1 + rng.nextBelow(50'000);
    policy.retryBudget = static_cast<int>(rng.nextBelow(64));
    policy.degrade.shrinkBatchUnderPressure = rng.nextBool(0.5);
    policy.degrade.shedLowestPriority = rng.nextBool(0.5);
    policy.degrade.fallbackQueueDepth =
        rng.nextBool(0.5)
            ? 0
            : 1 + static_cast<int>(rng.nextBelow(16));
    policy.validate();

    std::vector<RequestProfile> profiles;
    const size_t numProfiles = 1 + rng.nextBelow(3);
    for (size_t p = 0; p < numProfiles; ++p) {
        RequestProfile prof;
        prof.classIndex =
            static_cast<int>(rng.nextBelow(classes.size()));
        prof.weight = 0.25 + rng.nextDouble();
        prof.priority = static_cast<int>(rng.nextBelow(4));
        prof.sloCycles =
            rng.nextBool(0.5) ? 0 : 1 + rng.nextBelow(200'000);
        profiles.push_back(prof);
    }
    ArrivalSpec spec;
    spec.ratePerMcycle = 20.0 + rng.nextDouble() * 500.0;
    const uint64_t horizon = 500'000;
    const std::vector<Request> requests = generateArrivals(
        spec, profiles, horizon, GetParam() * 7 + 1);

    const ServingStats stats =
        runServing(policy, classes, requests, plan, horizon);
    EXPECT_EQ(stats.offered, requests.size());
    EXPECT_EQ(stats.completed + stats.shedOverflow +
                  stats.shedDeadline + stats.shedOversize +
                  stats.failed,
              stats.offered)
        << "a request was lost or double-counted";
    EXPECT_EQ(stats, runServing(policy, classes, requests, plan,
                                horizon))
        << "rerun diverged";
}

namespace {

/**
 * A random elementwise dataflow graph with random fan-in/fan-out and
 * occasional in-place updates. Containers live in deques so their
 * addresses — the IR's interning identity — stay stable as the pool
 * grows. @p sharedIn, when given, is a read-only input other replicas
 * also read (the merged-batch shared-arena case).
 */
struct RandomEwGraph {
    std::deque<DenseMatrix> mats;
    std::deque<ElementwiseKernel> kernels;
    OpGraph graph;
};

void
buildRandomEwGraph(Rng &rng, DenseMatrix *sharedIn, int64_t rows,
                   int64_t cols, RandomEwGraph &out)
{
    const size_t nIn = 1 + rng.nextBelow(3);
    for (size_t i = 0; i < nIn; ++i) {
        out.mats.emplace_back(rows, cols);
        out.mats.back().fillUniform(rng, -1.0f, 1.0f);
    }
    std::vector<DenseMatrix *> pool;
    for (DenseMatrix &m : out.mats)
        pool.push_back(&m);
    if (sharedIn)
        pool.push_back(sharedIn);
    const size_t nK = 4 + rng.nextBelow(16);
    for (size_t k = 0; k < nK; ++k) {
        DenseMatrix &a = *pool[rng.nextBelow(pool.size())];
        DenseMatrix *dst;
        if (rng.nextBool(0.2)) {
            // Overwrite a private mat (possibly one of the reads:
            // the in-place aliasing edge case). Never the shared
            // input — merge requires write-disjoint parts.
            dst = &out.mats[rng.nextBelow(out.mats.size())];
        } else {
            out.mats.emplace_back(rows, cols);
            dst = &out.mats.back();
            pool.push_back(dst);
        }
        if (rng.nextBool(0.5)) {
            DenseMatrix &b = *pool[rng.nextBelow(pool.size())];
            out.kernels.emplace_back("mul" + std::to_string(k),
                                     ElementwiseKernel::EwOp::Mul, a,
                                     b, *dst);
        } else {
            out.kernels.emplace_back("relu" + std::to_string(k),
                                     ElementwiseKernel::EwOp::Relu,
                                     a, *dst);
        }
    }
    for (ElementwiseKernel &k : out.kernels)
        out.graph.addNode(k);
}

/**
 * The planner's safety net, checked from first principles: two
 * windows whose planned regions overlap must never be live at the
 * same schedule point unless budget waves serialize their parts.
 */
void
checkNoOverlappingLiveIntervals(const MemPlan &plan)
{
    const auto &ws = plan.windows();
    for (size_t i = 0; i < ws.size(); ++i) {
        for (size_t j = i + 1; j < ws.size(); ++j) {
            const PlannedWindow &x = ws[i];
            const PlannedWindow &y = ws[j];
            if (x.offset + x.bytes <= y.offset ||
                y.offset + y.bytes <= x.offset)
                continue; // disjoint regions
            if (x.part >= 0 && y.part >= 0 && x.part != y.part) {
                EXPECT_NE(plan.waveOf(x.part), plan.waveOf(y.part))
                    << "cross-part region overlap within one wave";
                continue;
            }
            EXPECT_TRUE(x.lastNode < y.firstNode ||
                        y.lastNode < x.firstNode)
                << "windows " << i << "/" << j
                << " share a region while both live";
        }
    }
}

} // namespace

TEST_P(FuzzSeeds, RandomOpGraphPlansAreSafeAndNeverWorseThanNaive)
{
    Rng rng(GetParam() * 977 + 11);
    const int64_t rows = 8 * (1 + rng.nextBelow(6));
    const int64_t cols = 4 * (1 + rng.nextBelow(6));
    const size_t parts = 1 + rng.nextBelow(3);

    DenseMatrix sharedIn(rows, cols);
    sharedIn.fillUniform(rng, -1.0f, 1.0f);

    std::vector<std::unique_ptr<RandomEwGraph>> replicas;
    std::vector<const OpGraph *> ptrs;
    for (size_t p = 0; p < parts; ++p) {
        replicas.push_back(std::make_unique<RandomEwGraph>());
        buildRandomEwGraph(rng, &sharedIn, rows, cols,
                           *replicas.back());
        replicas.back()->graph.validate();
        FunctionalEngine sizer;
        sizer.run(replicas.back()->graph);
        ptrs.push_back(&replicas.back()->graph);
    }

    OpGraph mergedStorage;
    if (parts > 1)
        mergedStorage = OpGraph::merge(ptrs);
    const OpGraph &g =
        parts > 1 ? mergedStorage : replicas[0]->graph;

    const MemPlan plan = MemPlan::build(g);
    ASSERT_TRUE(plan.fullSpanCoverage());
    plan.verify(g);
    checkNoOverlappingLiveIntervals(plan);
    EXPECT_LE(plan.peakBytes(), plan.naiveBytes());
    if (parts > 1) {
        uint64_t partSum = 0;
        for (size_t p = 0; p < parts; ++p)
            partSum += plan.partPeakBytes(p);
        EXPECT_EQ(plan.peakBytes(),
                  plan.sharedArenaBytes() + partSum);
    }

    const uint64_t budget =
        plan.peakBytes() > 4 ? plan.peakBytes() * 3 / 4 : 1;
    if (parts > 1) {
        MemPlan::Options opts;
        opts.budgetBytes = budget;
        const MemPlan sliced = MemPlan::build(g, opts);
        sliced.verify(g);
        checkNoOverlappingLiveIntervals(sliced);
        if (sliced.fitsBudget())
            EXPECT_LE(sliced.peakBytes(), budget);
        EXPECT_GE(sliced.numWaves(), 1u);
        EXPECT_LE(sliced.numWaves(), parts);
    } else {
        // Snapshot the functional state, slice to the budget, rerun
        // the spilled graph: identical values everywhere — the
        // spill/reload round trip is semantically invisible.
        std::vector<DenseMatrix> snap(replicas[0]->mats.begin(),
                                      replicas[0]->mats.end());
        SpilledGraph sp = spillToBudget(g, budget);
        sp.graph.validate();
        ASSERT_TRUE(sp.plan.fullSpanCoverage());
        sp.plan.verify(sp.graph);
        checkNoOverlappingLiveIntervals(sp.plan);
        if (sp.plan.fitsBudget())
            EXPECT_LE(sp.plan.peakBytes(), budget);
        FunctionalEngine rerun;
        rerun.run(sp.graph);
        for (size_t m = 0; m < snap.size(); ++m) {
            const DenseMatrix &got = replicas[0]->mats[m];
            for (int64_t r = 0; r < rows; ++r)
                for (int64_t c = 0; c < cols; ++c)
                    ASSERT_EQ(got.at(r, c), snap[m].at(r, c))
                        << "mat " << m << " @" << r << "," << c;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, FuzzSeeds,
                         ::testing::Range<uint64_t>(1, 21));
