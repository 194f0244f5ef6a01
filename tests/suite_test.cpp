/**
 * @file
 * Tests for the frameworks and suite layers: PyG/DGL adapter
 * behaviour (computational-model resolution, overhead ordering),
 * user-parameter parsing with config files, and the end-to-end
 * benchmark runner.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "frameworks/FrameworkAdapter.hpp"
#include "graph/Generators.hpp"
#include "suite/BenchSession.hpp"
#include "suite/UserParams.hpp"
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

} // namespace

TEST(FrameworkTest, NameParsing)
{
    EXPECT_EQ(frameworkFromName("pyg"), Framework::Pyg);
    EXPECT_EQ(frameworkFromName("DGL"), Framework::Dgl);
    EXPECT_EQ(frameworkFromName("gsuite"), Framework::Gsuite);
    EXPECT_EQ(frameworkFromName("none"), Framework::Gsuite);
    EXPECT_EXIT(frameworkFromName("tensorflow"),
                ::testing::ExitedWithCode(1), "");
}

TEST(FrameworkTest, CompModelResolution)
{
    const FrameworkAdapter pyg(Framework::Pyg);
    const FrameworkAdapter dgl(Framework::Dgl);
    const FrameworkAdapter gs(Framework::Gsuite);
    // PyG is MessagePassing-based regardless of the request.
    EXPECT_EQ(pyg.resolveCompModel(GnnModelKind::Gcn,
                                   CompModel::Spmm),
              CompModel::Mp);
    // DGL is SpMM-based regardless of the request.
    EXPECT_EQ(dgl.resolveCompModel(GnnModelKind::Gin, CompModel::Mp),
              CompModel::Spmm);
    // gSuite honours the user.
    EXPECT_EQ(gs.resolveCompModel(GnnModelKind::Gcn, CompModel::Spmm),
              CompModel::Spmm);
}

TEST(FrameworkTest, OverheadOrdering)
{
    const auto pyg = FrameworkOverheads::of(Framework::Pyg);
    const auto dgl = FrameworkOverheads::of(Framework::Dgl);
    const auto gs = FrameworkOverheads::of(Framework::Gsuite);
    EXPECT_GT(pyg.initUs, dgl.initUs);
    EXPECT_GT(dgl.initUs, gs.initUs);
    EXPECT_GT(pyg.perKernelUs, dgl.perKernelUs);
    EXPECT_GE(pyg.kernelFactor, dgl.kernelFactor);
    EXPECT_EQ(gs.kernelFactor, 1.0);
}

TEST(FrameworkTest, EndToEndTimeIncludesOverheads)
{
    const Graph g = smallGraph();
    ModelConfig cfg;
    FunctionalEngine engine;
    const FrameworkAdapter pyg(Framework::Pyg);
    const auto res = pyg.run(pyg.prepare(g, cfg), engine);
    EXPECT_GT(res.endToEndUs,
              FrameworkOverheads::of(Framework::Pyg).initUs);
    EXPECT_GT(res.endToEndUs, res.kernelUs);
    EXPECT_FALSE(res.timeline.empty());
}

TEST(FrameworkTest, PygSlowestGsuiteFastest)
{
    const Graph g = smallGraph();
    ModelConfig cfg;
    FunctionalEngine engine;
    const auto runOn = [&](Framework fw) {
        const FrameworkAdapter adapter(fw);
        return adapter.run(adapter.prepare(g, cfg), engine);
    };
    const auto pyg = runOn(Framework::Pyg);
    const auto dgl = runOn(Framework::Dgl);
    cfg.comp = CompModel::Mp;
    const auto gsm = runOn(Framework::Gsuite);
    EXPECT_GT(pyg.endToEndUs, dgl.endToEndUs);
    EXPECT_GT(dgl.endToEndUs, gsm.endToEndUs);
}

TEST(FrameworkTest, DglRunsSageViaSpmm)
{
    const Graph g = smallGraph();
    ModelConfig cfg;
    cfg.model = GnnModelKind::Sage;
    FunctionalEngine engine;
    const FrameworkAdapter dgl(Framework::Dgl);
    const auto res = dgl.run(dgl.prepare(g, cfg), engine);
    bool has_spmm = false;
    for (const auto &rec : res.timeline)
        has_spmm |= rec.kind == KernelClass::SpMM;
    EXPECT_TRUE(has_spmm);
}

TEST(UserParamsTest, DefaultsAndOverrides)
{
    const char *argv[] = {"prog",        "--dataset", "pubmed",
                          "--model",     "gin",       "--engine",
                          "sim",         "--layers",  "3",
                          "--framework", "dgl",       nullptr};
    const UserParams p = UserParams::fromArgs(11, argv);
    EXPECT_EQ(p.dataset, "pubmed");
    EXPECT_EQ(p.model, GnnModelKind::Gin);
    EXPECT_EQ(p.engine, EngineKind::Sim);
    EXPECT_EQ(p.layers, 3);
    EXPECT_EQ(p.framework, Framework::Dgl);
    EXPECT_EQ(p.runs, 3); // paper default
}

TEST(UserParamsTest, ConfigFileProvidesDefaults)
{
    const std::string path = "/tmp/gsuite_params.conf";
    {
        std::ofstream f(path);
        f << "dataset = citeseer\nlayers = 5\nhidden = 32\n";
    }
    const std::string cfg_arg = path;
    const char *argv[] = {"prog",     "--config", cfg_arg.c_str(),
                          "--layers", "2",        nullptr};
    const UserParams p = UserParams::fromArgs(5, argv);
    EXPECT_EQ(p.dataset, "citeseer"); // from file
    EXPECT_EQ(p.layers, 2);           // CLI override
    EXPECT_EQ(p.hidden, 32);          // from file
    std::remove(path.c_str());
}

TEST(UserParamsTest, UnknownOptionIsFatal)
{
    const char *argv[] = {"prog", "--datset", "cora", nullptr};
    EXPECT_EXIT(UserParams::fromArgs(3, argv),
                ::testing::ExitedWithCode(1), "");
}

TEST(UserParamsTest, UnknownDatasetIsFatal)
{
    const char *argv[] = {"prog", "--dataset", "mnist", nullptr};
    EXPECT_EXIT(UserParams::fromArgs(3, argv),
                ::testing::ExitedWithCode(1), "");
}

TEST(UserParamsTest, FlagsOutsideTheDeclaredSubsetStayUnread)
{
    const char *argv[] = {"prog",     "--layers", "3", "--sample",
                          "cta",      "--bogus",  "1", nullptr};
    OptionSet opts;
    opts.parseArgs(7, argv);
    UserParams base;
    base.gpu = "a100";
    const UserParams p =
        UserParams::fromOptions(opts, {"layers", "gpu"}, base);
    EXPECT_EQ(p.layers, 3);
    EXPECT_EQ(p.gpu, "a100"); // absent: the CLI's default stands
    EXPECT_TRUE(p.sample.empty()); // a shared flag, but undeclared
    EXPECT_EQ(opts.unreadKeys(),
              (std::vector<std::string>{"sample", "bogus"}));
    EXPECT_EXIT(opts.rejectUnread(), ::testing::ExitedWithCode(1),
                "unknown option '--sample'");
}

TEST(UserParamsTest, SharedValuesAreValidatedWhileParsing)
{
    const std::vector<std::string> flags = {"layers", "sweep-threads"};
    const char *layers[] = {"prog", "--layers", "0", nullptr};
    OptionSet bad_layers;
    bad_layers.parseArgs(3, layers);
    EXPECT_EXIT(UserParams::fromOptions(bad_layers, flags, {}),
                ::testing::ExitedWithCode(1), "--layers must be >= 1");

    const char *threads[] = {"prog", "--sweep-threads", "-3", nullptr};
    OptionSet bad_threads;
    bad_threads.parseArgs(3, threads);
    EXPECT_EXIT(UserParams::fromOptions(bad_threads, flags, {}),
                ::testing::ExitedWithCode(1),
                "--sweep-threads must be >= 0");
}

TEST(UserParamsTest, DeclaringAnUnknownFlagPanics)
{
    const OptionSet opts;
    EXPECT_DEATH(UserParams::fromOptions(opts, {"layer"}, {}),
                 "not in the shared flag table");
}

TEST(UserParamsTest, ScaleResolution)
{
    UserParams p;
    p.dataset = "reddit";
    p.engine = EngineKind::Sim;
    const DatasetScale s = p.resolveScale();
    EXPECT_EQ(s.nodeDivisor,
              defaultSimScale(DatasetId::Reddit).nodeDivisor);
    p.nodeDivisor = 99;
    EXPECT_EQ(p.resolveScale().nodeDivisor, 99);
    p.engine = EngineKind::Functional;
    p.nodeDivisor = -1;
    EXPECT_EQ(p.resolveScale().nodeDivisor,
              defaultFunctionalScale(DatasetId::Reddit).nodeDivisor);
}

TEST(UserParamsTest, DescribeMentionsEverything)
{
    UserParams p;
    const std::string d = p.describe();
    EXPECT_NE(d.find("gcn"), std::string::npos);
    EXPECT_NE(d.find("cora"), std::string::npos);
    EXPECT_NE(d.find("gsuite"), std::string::npos);
}

TEST(RunnerTest, EndToEndFunctionalRun)
{
    UserParams p;
    p.dataset = "cora";
    p.runs = 2;
    p.featureCap = 32; // keep CI fast
    const RunOutcome out = BenchSession::runPoint(p);
    EXPECT_GT(out.meanEndToEndUs, 0.0);
    EXPECT_GE(out.maxEndToEndUs, out.minEndToEndUs);
    EXPECT_FALSE(out.timeline.empty());
    EXPECT_NE(out.graphSummary.find("cora"), std::string::npos);
}

TEST(RunnerTest, AggregationHelpers)
{
    UserParams p;
    p.dataset = "cora";
    p.runs = 1;
    p.featureCap = 32;
    const RunOutcome out = BenchSession::runPoint(p);
    const auto by_class = wallUsByClass(out.timeline);
    EXPECT_TRUE(by_class.count(KernelClass::Sgemm));
    EXPECT_TRUE(by_class.count(KernelClass::IndexSelect));
    EXPECT_TRUE(by_class.count(KernelClass::Scatter));
    double total = 0;
    for (const auto &[cls, us] : by_class)
        total += us;
    EXPECT_GT(total, 0.0);
}

TEST(RunnerTest, SimEngineOutcomeHasSimStats)
{
    UserParams p;
    p.dataset = "cora";
    p.engine = EngineKind::Sim;
    p.runs = 1;
    p.featureCap = 16;
    p.edgeDivisor = 4;
    p.nodeDivisor = 4;
    const RunOutcome out = BenchSession::runPoint(p);
    const auto sim_by_class = simStatsByClass(out.timeline);
    EXPECT_FALSE(sim_by_class.empty());
    for (const auto &[cls, st] : sim_by_class)
        EXPECT_GT(st.cycles, 0u);
}

TEST(EngineKindTest, Parsing)
{
    EXPECT_EQ(engineKindFromName("functional"),
              EngineKind::Functional);
    EXPECT_EQ(engineKindFromName("SIM"), EngineKind::Sim);
    EXPECT_EQ(engineKindFromName("gpgpusim"), EngineKind::Sim);
    EXPECT_EXIT(engineKindFromName("fpga"),
                ::testing::ExitedWithCode(1), "");
}
