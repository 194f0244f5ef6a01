#include "Traced.hpp"

#include <algorithm>
#include <exception>
#include <memory>

#include "Checks.hpp"
#include "Host.hpp"
#include "frameworks/FrameworkAdapter.hpp"
#include "models/GnnModel.hpp"
#include "models/Reference.hpp"
#include "simgpu/CtaSampler.hpp"
#include "simgpu/DeviceAllocator.hpp"
#include "suite/ResultStore.hpp"
#include "suite/Runner.hpp"
#include "util/ThreadPool.hpp"
#include "util/Timer.hpp"

namespace perfbench {

using namespace gsuite;

namespace {

/** Trace one point: every run of it, then the 1-SM-thread probe. */
void
tracePoint(SpanRecorder &rec, const SweepPoint &pt, const Graph &graph,
           TracedRun &out)
{
    const UserParams &p = pt.params;
    const int64_t idx = static_cast<int64_t>(pt.index);
    const bool sim = p.engine == EngineKind::Sim;
    ModelConfig cfg = p.modelConfig();
    cfg.comp = FrameworkAdapter(p.framework)
                   .resolveCompModel(cfg.model, cfg.comp);

    const GpuConfig gpu = p.resolveGpuConfig();
    const SimOptions so = engineSimOptions(p);
    const HwProfilerConfig hc = engineProfilerConfig(p, gpu);
    const int lanes = launchLanes(p);
    const int64_t factor = gpu.smSampleFactor;

    // One address space and one simulator set per point, living
    // across its runs, as the engine's do.
    DeviceAllocator alloc;
    std::unique_ptr<GpuSimulator> sim0;
    if (sim)
        sim0 = std::make_unique<GpuSimulator>(gpu);
    std::vector<std::unique_ptr<GpuSimulator>> laneSims;
    std::unique_ptr<ThreadPool> pool;
    std::unique_ptr<GnnPipeline> pipe;
    std::vector<KernelLaunch> launches;
    std::vector<KernelRecord> records;

    {
        ScopedSpan point(rec, "engine.point", "", -1, idx);
        for (int r = 0; r < p.runs; ++r) {
            launches.clear();
            records.clear();
            pipe.reset();
            {
                ScopedSpan s(rec, "models.build", "", point.id(), idx);
                pipe = std::make_unique<GnnPipeline>(graph, cfg);
            }
            std::vector<size_t> deferred;
            for (const OpNode &n : pipe->opGraph().nodes()) {
                KernelRecord kr;
                kr.name = n.kernel->name();
                kr.kind = n.kernel->kind();
                const std::string cls = kernelClassName(kr.kind);
                {
                    ScopedSpan s(rec, "kernels.execute", cls, point.id(),
                                 idx);
                    Timer t;
                    n.kernel->execute();
                    kr.wallUs = t.elapsedUs();
                }
                {
                    ScopedSpan s(rec, "simgpu.launch", cls, point.id(),
                                 idx);
                    launches.push_back(n.kernel->makeLaunch(alloc));
                }
                const KernelLaunch &launch = launches.back();
                if (p.profileCaches) {
                    ScopedSpan s(rec, "profiler.profile", cls, point.id(),
                                 idx);
                    HwProfiler prof(hc);
                    kr.hw = prof.profile(launch);
                    kr.hasHw = true;
                }
                if (sim && gpu.sampleMode == CtaSampleMode::Cta) {
                    CtaSamplePlan plan;
                    {
                        ScopedSpan s(rec, "simgpu.sample_plan", cls,
                                     point.id(), idx);
                        // The population GpuSimulator::run samples.
                        const int64_t expected =
                            (launch.dims.numCtas + factor - 1) / factor;
                        plan = buildCtaSamplePlan(gpu, launch, expected,
                                                  so.maxCtas);
                    }
                    if (plan.engaged && r == p.runs - 1) {
                        out.sampledCtas +=
                            static_cast<int64_t>(plan.order.size());
                        out.samplePopulation += plan.population;
                    }
                }
                if (sim && lanes <= 1) {
                    ScopedSpan s(rec, "simgpu.run", cls, point.id(), idx);
                    kr.sim = sim0->run(launch, so);
                    kr.hasSim = true;
                } else if (sim) {
                    deferred.push_back(records.size());
                }
                records.push_back(std::move(kr));
            }
            if (deferred.empty())
                continue;
            // SimEngine::sync: independent launches on concurrent
            // lanes, one single-threaded simulator per lane.
            ScopedSpan sync(rec, "engine.sync", "", point.id(), idx);
            const int n = std::min(lanes, static_cast<int>(deferred.size()));
            if (!pool || pool->lanes() != n)
                pool = std::make_unique<ThreadPool>(n);
            while (static_cast<int>(laneSims.size()) < n - 1)
                laneSims.push_back(std::make_unique<GpuSimulator>(gpu));
            SimOptions laneOpts = so;
            laneOpts.numThreads = 1;
            std::vector<std::exception_ptr> errors(deferred.size());
            pool->parallelFor(deferred.size(), [&](size_t i, int lane) {
                GpuSimulator &s =
                    lane == 0 ? *sim0
                              : *laneSims[static_cast<size_t>(lane - 1)];
                KernelRecord &kr = records[deferred[i]];
                ScopedSpan span(rec, "simgpu.run", kernelClassName(kr.kind),
                                sync.id(), idx);
                try {
                    kr.sim = s.run(launches[deferred[i]], laneOpts);
                    kr.hasSim = true;
                } catch (...) {
                    errors[i] = std::current_exception();
                }
            });
            for (const std::exception_ptr &e : errors)
                if (e)
                    std::rethrow_exception(e);
        }
    }

    out.outputErr[pt.index] = outputError(
        pipe->output(), referenceForward(graph, cfg, pipe->weights()));

    // SM-thread scaling probe: launches that ran inline on one SM
    // thread run again on the library's auto count. Statistics must
    // not depend on the thread count.
    if (sim && lanes <= 1 && smThreadsPerLaunch(p, gpu) == 1 &&
        autoSmThreads(gpu) > 1) {
        SimOptions autoOpts = so;
        autoOpts.numThreads = 0;
        for (size_t i = 0; i < launches.size(); ++i) {
            KernelStats st;
            {
                ScopedSpan s(rec, "simgpu.run_auto",
                             kernelClassName(records[i].kind), -1, idx);
                st = sim0->run(launches[i], autoOpts);
            }
            KernelRecord probe = records[i];
            probe.sim = st;
            if (statDigest(probe) != statDigest(records[i]))
                ++out.threadMismatches;
        }
    }
    out.timelines[pt.index] = std::move(records);
}

} // namespace

TracedRun
runTraced(const Workload &w, const std::string &storePath,
          const std::map<std::string, double> &meta)
{
    SpanRecorder rec;
    TracedRun out;
    out.timelines.resize(w.points.size());
    out.outputErr.assign(w.points.size(), 0.0);

    std::map<std::string, Graph> graphs;
    for (const SweepPoint &pt : w.points) {
        const std::string key = graphKey(pt.params);
        if (graphs.count(key))
            continue;
        ScopedSpan s(rec, "graph.load", "", -1,
                     static_cast<int64_t>(pt.index));
        graphs.emplace(key, loadDatasetFor(pt.params));
    }

    for (const SweepPoint &pt : w.points)
        tracePoint(rec, pt, graphs.at(graphKey(pt.params)), out);

    ResultStore store;
    store.resize(w.points.size());
    for (const SweepPoint &pt : w.points) {
        SweepResult r;
        r.point = pt;
        r.ok = true;
        r.outcome.params = pt.params;
        r.outcome.timeline = out.timelines[pt.index];
        store.put(std::move(r));
    }
    {
        ScopedSpan s(rec, "suite.emit", "", -1, -1);
        store.toJson(storePath, meta);
    }

    out.spans = rec.spans();
    for (const Span &s : out.spans)
        if (s.parent < 0 && s.name != "simgpu.run_auto")
            out.wallMs += s.durationMs();
    return out;
}

} // namespace perfbench
