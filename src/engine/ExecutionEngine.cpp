#include "engine/ExecutionEngine.hpp"

#include <algorithm>
#include <exception>

#include "memplan/MemPlan.hpp"
#include "obs/GraphTrace.hpp"
#include "obs/TraceSink.hpp"
#include "util/Logging.hpp"
#include "util/Timer.hpp"

namespace gsuite {

double
ExecutionEngine::totalWallUs() const
{
    double total = 0.0;
    for (const auto &r : records)
        total += r.wallUs;
    return total;
}

void
ExecutionEngine::runKernel(Kernel &kernel,
                           DeviceAllocator &kernelAlloc)
{
    KernelRecord rec;
    rec.name = kernel.name();
    rec.kind = kernel.kind();

    Timer t;
    kernel.execute();
    rec.wallUs = t.elapsedUs();

    records.push_back(std::move(rec));
    measureKernel(records.size() - 1, kernel, kernelAlloc);
}

void
ExecutionEngine::executeLevels(const OpGraph &graph,
                               size_t firstRecord)
{
    const size_t n = graph.numNodes();
    records.resize(firstRecord + n);
    for (size_t i = 0; i < n; ++i) {
        records[firstRecord + i].name = graph.node(i).kernel->name();
        records[firstRecord + i].kind = graph.node(i).kernel->kind();
    }

    // Any dependency edge strictly increases level, so nodes of one
    // level are pairwise independent — including WAR/WAW hazards,
    // which io()-derived edges cover. Plan-backed placement makes
    // their addresses order-independent too, so the level is safe to
    // execute concurrently.
    std::vector<std::vector<size_t>> byLevel(graph.numLevels());
    for (const OpNode &nd : graph.nodes())
        byLevel[static_cast<size_t>(nd.level)].push_back(nd.index);
    size_t width = 0;
    for (const auto &level : byLevel)
        width = std::max(width, level.size());

    int lanes =
        planThreads > 0 ? planThreads : ThreadPool::defaultLanes();
    lanes = static_cast<int>(std::min<size_t>(
        static_cast<size_t>(std::max(lanes, 1)), width));
    if (lanes > 1 && (!execPool || execPool->lanes() != lanes))
        execPool = std::make_unique<ThreadPool>(lanes);

    for (const auto &level : byLevel) {
        // Fault hooks fire serially in schedule order so injected
        // failures are deterministic regardless of lane count.
        if (faultHook)
            for (size_t i : level)
                faultHook(i, *graph.node(i).kernel);
        if (level.size() == 1 || lanes <= 1) {
            for (size_t i : level) {
                Timer t;
                graph.node(i).kernel->execute();
                records[firstRecord + i].wallUs = t.elapsedUs();
            }
            continue;
        }
        // Workers must not unwind; capture and rethrow the lowest
        // schedule index so failures are lane-schedule-independent.
        std::vector<std::exception_ptr> errors(level.size());
        execPool->parallelFor(
            level.size(), [&](size_t k, int) {
                try {
                    Timer t;
                    graph.node(level[k]).kernel->execute();
                    records[firstRecord + level[k]].wallUs =
                        t.elapsedUs();
                } catch (...) {
                    errors[k] = std::current_exception();
                }
            });
        for (std::exception_ptr &e : errors)
            if (e)
                std::rethrow_exception(e);
    }
}

void
ExecutionEngine::run(const OpGraph &graph)
{
    graph.validate();
    const size_t firstRecord = records.size();

    // Merged graphs: each part gets its own device address space so
    // its launches see exactly the addresses a standalone run of
    // that pipeline would (launch simulations start from a flushed
    // device, so cross-part address relationships never matter).
    // Plain pipeline graphs keep the engine's shared allocator —
    // byte-identical behavior to the serial per-kernel path.
    std::vector<std::unique_ptr<DeviceAllocator>> partAllocs;
    if (graph.numParts() > 1)
        for (size_t p = 0; p < graph.numParts(); ++p)
            partAllocs.push_back(
                std::make_unique<DeviceAllocator>());
    const auto allocFor = [&](const OpNode &n) -> DeviceAllocator & {
        return partAllocs.empty()
                   ? alloc
                   : *partAllocs[static_cast<size_t>(n.part)];
    };

    MemPlan plan;
    bool planned = false;
    if (planMode) {
        try {
            // Phase A: level-parallel functional execution — legal
            // before any launch exists because plan-backed placement
            // decouples addresses from execution order.
            executeLevels(graph, firstRecord);

            // Phase B: plan from the (now-sized) span declarations.
            plan = MemPlan::build(graph);
            planned = plan.fullSpanCoverage();
            if (!planned && graph.numNodes() > 0)
                warn("mem-plan: graph has nodes without ioSpans() "
                     "declarations; falling back to naive "
                     "on-demand placement");

            // Phase C: freeze the canonical layout, then build
            // launches and measure in schedule order (the timeline
            // order is part of the deterministic contract).
            if (planned) {
                if (partAllocs.empty())
                    plan.bindAllocator(alloc, 0);
                else
                    for (size_t p = 0; p < partAllocs.size(); ++p)
                        plan.bindAllocator(*partAllocs[p], p);
            }
            size_t nodeIndex = 0;
            for (const OpNode &n : graph.nodes()) {
                measureKernel(firstRecord + nodeIndex, *n.kernel,
                              allocFor(n));
                ++nodeIndex;
            }
        } catch (...) {
            alloc.thaw();
            try {
                sync();
            } catch (...) {
            }
            throw;
        }
        alloc.thaw();
    } else {
        // Naive mode: functional execution, launch construction and
        // on-demand address assignment interleave in the
        // deterministic schedule order; only the deferred timing
        // simulations overlap, joined by sync().
        size_t nodeIndex = 0;
        for (const OpNode &n : graph.nodes()) {
            try {
                if (faultHook)
                    faultHook(nodeIndex, *n.kernel);
                runKernel(*n.kernel, allocFor(n));
            } catch (...) {
                // Deferred simulations reference operand buffers the
                // caller may destroy while unwinding; drain them
                // before propagating the node's failure. A secondary
                // sync failure must not mask the original error.
                try {
                    sync();
                } catch (...) {
                }
                throw;
            }
            ++nodeIndex;
        }
        // Plan post-hoc for reporting: peaks are a pure function of
        // the graph, so naive runs report the same numbers a
        // plan-backed run would.
        plan = MemPlan::build(graph);
    }
    sync();

    // Stamp the per-node naive placement high-water into the sim
    // stats. Derived from the plan's canonical replay — not from the
    // live allocator — so it is identical across runs on a warm
    // engine and across placement modes.
    if (plan.fullSpanCoverage())
        for (size_t i = 0; i < graph.numNodes(); ++i) {
            KernelRecord &rec = records[firstRecord + i];
            if (rec.hasSim)
                rec.sim.deviceBytesPeak =
                    plan.nodeNaiveHighWater()[i];
        }

    GraphRunReport report;
    report.nodes = graph.numNodes();
    report.edges = graph.numEdges();
    report.levels = graph.numLevels();
    report.parts = graph.numParts();
    report.lanes = std::max(1, concurrentLaneCount());
    {
        std::vector<size_t> widths(graph.numLevels(), 0);
        for (const OpNode &n : graph.nodes())
            report.maxLevelWidth = std::max(
                report.maxLevelWidth,
                ++widths[static_cast<size_t>(n.level)]);
    }
    report.planned = planned;
    report.memPeakPlannedBytes = plan.peakBytes();
    report.memPeakNaiveBytes = plan.naiveBytes();
    std::vector<uint64_t> costs;
    costs.reserve(graph.numNodes());
    report.hasSim = graph.numNodes() > 0;
    for (size_t i = 0; i < graph.numNodes(); ++i) {
        const KernelRecord &rec = records.at(firstRecord + i);
        report.hasSim = report.hasSim && rec.hasSim;
        costs.push_back(rec.hasSim ? rec.sim.cycles : 0);
    }
    if (report.hasSim) {
        report.serialCycles = graph.serialCost(costs);
        report.criticalPathCycles = graph.criticalPathCost(costs);
        report.makespanCycles =
            graph.makespan(costs, report.lanes);
    }
    graphReport = report;

    // Observation only — emitted from the deterministic schedule
    // replay and the already-final records, after every counter
    // above is computed.
    if (trace && trace->enabled())
        emitGraphTrace(*trace, graph, plan, records, firstRecord,
                       report.lanes);
}

FunctionalEngine::FunctionalEngine(Options opts) : opts(opts)
{
    if (opts.profileCaches)
        profiler.emplace(opts.hwConfig);
}

void
FunctionalEngine::measureKernel(size_t recordIndex, Kernel &kernel,
                                DeviceAllocator &kernelAlloc)
{
    if (!profiler)
        return;
    const KernelLaunch launch = kernel.makeLaunch(kernelAlloc);
    records[recordIndex].hw = profiler->profile(launch);
    records[recordIndex].hasHw = true;
}

SimEngine::SimEngine(Options opts_in)
    : opts(std::move(opts_in)), sim(opts.gpu)
{
    if (opts.profileCaches)
        profiler.emplace(opts.hwConfig);
}

int
SimEngine::effectiveParallel() const
{
    if (opts.parallelLaunches > 0)
        return opts.parallelLaunches;
    return std::min(4, ThreadPool::defaultLanes());
}

void
SimEngine::applySmSampling(SimOptions &runOpts) const
{
    if (!trace || !trace->enabled(TraceSm))
        return;
    runOpts.smSampleEnabled = true;
    runOpts.smSampleCore = std::clamp(trace->samplingCore(), 0,
                                      opts.gpu.numSms - 1);
}

void
SimEngine::measureKernel(size_t recordIndex, Kernel &kernel,
                         DeviceAllocator &kernelAlloc)
{
    KernelLaunch launch = kernel.makeLaunch(kernelAlloc);
    KernelRecord &rec = records[recordIndex];

    if (profiler) {
        rec.hw = profiler->profile(launch);
        rec.hasHw = true;
    }

    // Fallback value for single-kernel runs; graph runs overwrite it
    // with the plan-derived (mode- and warmth-independent) figure.
    const uint64_t devPeak = kernelAlloc.bytesPeak();

    if (effectiveParallel() <= 1) {
        SimOptions run_opts = opts.sim;
        applySmSampling(run_opts);
        rec.sim = sim.run(launch, run_opts);
        rec.sim.deviceBytesPeak = devPeak;
        rec.hasSim = true;
        return;
    }

    // Defer the timing simulation: launches are mutually independent
    // (each starts from a flushed device), so they can run
    // concurrently at the next sync(). The launch's trace closures
    // reference the kernel's operand buffers — callers must sync()
    // before those die (GnnPipeline::run and timeline() do).
    pending.push_back(
        PendingSim{recordIndex, std::move(launch), devPeak});
}

void
SimEngine::sync()
{
    if (pending.empty())
        return;
    const int lanes = static_cast<int>(
        std::min<size_t>(static_cast<size_t>(effectiveParallel()),
                         pending.size()));
    if (!simPool || simPool->lanes() != lanes)
        simPool = std::make_unique<ThreadPool>(lanes);
    // Lane 0 reuses the engine's own simulator; each extra lane owns
    // one more. Per-launch sims stay single-threaded so lanes don't
    // oversubscribe each other.
    while (static_cast<int>(laneSims.size()) < lanes - 1)
        laneSims.push_back(std::make_unique<GpuSimulator>(opts.gpu));
    SimOptions lane_opts = opts.sim;
    lane_opts.numThreads = 1;
    applySmSampling(lane_opts);
    // ThreadPool workers must not unwind; capture per-launch errors
    // and rethrow the lowest launch index on the calling thread so
    // the reported failure is independent of lane scheduling.
    std::vector<std::exception_ptr> errors(pending.size());
    simPool->parallelFor(
        pending.size(), [&](size_t i, int lane) {
            GpuSimulator &lane_sim =
                lane == 0 ? sim
                          : *laneSims[static_cast<size_t>(lane - 1)];
            PendingSim &p = pending[i];
            try {
                records[p.recordIndex].sim =
                    lane_sim.run(p.launch, lane_opts);
                records[p.recordIndex].sim.deviceBytesPeak =
                    p.deviceBytesPeak;
                records[p.recordIndex].hasSim = true;
            } catch (...) {
                errors[i] = std::current_exception();
            }
        });
    pending.clear();
    for (std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
}

} // namespace gsuite
