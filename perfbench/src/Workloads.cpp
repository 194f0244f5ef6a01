#include "Workloads.hpp"

#include <stdexcept>

namespace perfbench {

using namespace gsuite;

namespace {

/** The paper's simulator grid: GCN/GIN/SAGE x MP/SpMM, minus the
 *  combination gSuite has no implementation of (SAGE via SpMM). */
SweepSpec
paperGrid(const UserParams &base)
{
    return SweepSpec{}
        .base(base)
        .models({GnnModelKind::Gcn, GnnModelKind::Gin,
                 GnnModelKind::Sage})
        .comps({CompModel::Mp, CompModel::Spmm})
        .skip([](const UserParams &p) {
            return p.model == GnnModelKind::Sage &&
                   p.comp == CompModel::Spmm;
        });
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{
        "sim-sweep", "web-sampled", "hw-profile"};
    return names;
}

Workload
makeWorkload(const std::string &name, uint64_t seed)
{
    Workload w;
    w.name = name;
    UserParams base;
    base.framework = Framework::Gsuite;
    base.seed = seed;
    base.layers = 2;
    if (name == "sim-sweep") {
        // The paper's simulator grid, run the way the Fig. 4-9 benches
        // run it: default CTA cap, auto launch lanes (each launch on
        // one SM thread). The SM issue loop and the memory hierarchy
        // dominate; functional kernels are ~2%.
        base.engine = EngineKind::Sim;
        base.gpu = "v100-sim";
        base.runs = 1;
        base.maxCtas = 2048;
        base.simThreads = 0;
        base.simParallelLaunches = 0;
        w.spec = paperGrid(base).datasetNames({"cora", "pubmed"});
    } else if (name == "web-sampled") {
        // A web-scale graph, CTA-sampled at 1/8 with the cap lifted,
        // launches serial as on the single-point path: a working set
        // far above L2, and the estimator's error against exact runs.
        // One SM thread per launch: on a 4-vCPU VM the default (auto)
        // SM threads were 1.4x slower and their wall time 4x noisier
        // run to run (spin barriers every cycle), too noisy to gate;
        // the traced run measures the auto count instead
        // (simgpu.run_ms_auto).
        w.sampled = true;
        base.engine = EngineKind::Sim;
        base.runs = 1;
        base.maxCtas = int64_t{1} << 30;
        base.simThreads = 1;
        base.simParallelLaunches = 1;
        base.sample = "cta:0.125";
        base.dataset =
            "rmat:scale=16,ef=8,seed=" + std::to_string(seed);
        w.spec = paperGrid(base).gpus({"v100-sim", "a100"});
    } else if (name == "hw-profile") {
        // The paper's real-GPU + nvprof path: functional engine,
        // cache profiling, three runs per point. Never enters the SM
        // issue loop.
        base.engine = EngineKind::Functional;
        base.gpu = "v100-sim";
        base.runs = 3;
        base.profileCaches = true;
        base.simThreads = 0;
        w.spec = paperGrid(base).datasetNames({"pubmed", "reddit"});
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    w.points = w.spec.expand();
    return w;
}

std::string
graphKey(const UserParams &params)
{
    return params.dataset + "|" + params.resolveScale().describe() +
           "|" + std::to_string(params.seed);
}

} // namespace perfbench
