#include "Checks.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "Host.hpp"
#include "frameworks/FrameworkAdapter.hpp"
#include "models/GnnModel.hpp"
#include "models/Reference.hpp"
#include "simgpu/DeviceAllocator.hpp"
#include "util/ThreadPool.hpp"

namespace perfbench {

using namespace gsuite;

std::vector<uint64_t>
statDigest(const KernelRecord &rec)
{
    std::vector<uint64_t> d;
    if (rec.hasSim) {
        const KernelStats &s = rec.sim;
        d.insert(d.end(), {s.cycles, s.warpInstrs, s.l1Hits, s.l1Misses,
                           s.l2Hits, s.l2Misses, s.dramBytes});
        d.insert(d.end(), s.stallCycles.begin(), s.stallCycles.end());
    }
    if (rec.hasHw)
        d.push_back(rec.hw.l1Hits + rec.hw.l1Misses);
    return d;
}

std::vector<uint64_t>
profileCounts(const HwProfileResult &hw)
{
    return {hw.l1Hits, hw.l1Misses, hw.l2Hits, hw.l2Misses};
}

double
profileDrift(const HwProfileResult &a, const HwProfileResult &b)
{
    return std::max(std::fabs(a.l1HitRate() - b.l1HitRate()),
                    std::fabs(a.l2HitRate() - b.l2HitRate()));
}

bool
sameStats(const std::vector<KernelRecord> &a,
          const std::vector<KernelRecord> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (a[i].name != b[i].name || statDigest(a[i]) != statDigest(b[i]))
            return false;
    return true;
}

double
outputError(const DenseMatrix &out, const DenseMatrix &ref)
{
    if (out.rows() != ref.rows() || out.cols() != ref.cols())
        return std::numeric_limits<double>::infinity();
    double scale = 1.0;
    double worst = 0.0;
    const size_t n = static_cast<size_t>(ref.rows() * ref.cols());
    for (size_t i = 0; i < n; ++i) {
        const double r = ref.data()[i];
        const double o = out.data()[i];
        scale = std::max(scale, std::fabs(r));
        // NaN never compares greater: make it fail explicitly.
        if (std::isnan(o) || std::isnan(r))
            return std::numeric_limits<double>::infinity();
        worst = std::max(worst, std::fabs(o - r));
    }
    return worst / scale;
}

std::string
expectedPath(const std::string &dir, const std::string &workload,
             uint64_t seed)
{
    return dir + "/" + workload + ".seed" + std::to_string(seed) + ".tsv";
}

namespace {

std::vector<uint64_t>
parseList(const std::string &col)
{
    std::vector<uint64_t> out;
    if (col == "-")
        return out;
    std::stringstream ss(col);
    std::string v;
    while (std::getline(ss, v, ','))
        out.push_back(std::stoull(v));
    return out;
}

void
writeList(std::ostream &out, const std::vector<uint64_t> &list)
{
    if (list.empty())
        out << '-';
    for (size_t j = 0; j < list.size(); ++j)
        out << (j ? "," : "") << list[j];
}

} // namespace

bool
readExpected(const std::string &path, ExpectedStats &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string line;
    size_t lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty() || line[0] == '#')
            continue;
        std::vector<std::string> cols;
        std::stringstream ss(line);
        std::string col;
        while (std::getline(ss, col, '\t'))
            cols.push_back(col);
        if (cols.size() != 6)
            throw std::runtime_error(path + ":" + std::to_string(lineNo) +
                                     ": expected 6 tab-separated columns");
        ExpectedKernel k;
        k.name = cols[2];
        k.digest = parseList(cols[3]);
        k.exactCycles = std::stoull(cols[4]);
        k.freshProfile = parseList(cols[5]);
        auto &kernels = out[cols[0]];
        if (std::stoull(cols[1]) != kernels.size())
            throw std::runtime_error(path + ":" + std::to_string(lineNo) +
                                     ": kernel index out of order");
        kernels.push_back(std::move(k));
    }
    return true;
}

bool
writeExpected(const std::string &path, const ExpectedStats &stats)
{
    std::ofstream out(path);
    out << "# label\tkernel index\tkernel name\tstatDigest (sim: "
           "cycles, warp_instrs, l1 hits/misses, l2 hits/misses, dram "
           "bytes, 7 stall classes; profiler: l1 accesses)\texact cycles "
           "of a sampled launch (0 otherwise)\tfresh-allocator profile "
           "(l1 hits/misses, l2 hits/misses; - if unprofiled)\n";
    for (const auto &[label, kernels] : stats) {
        for (size_t i = 0; i < kernels.size(); ++i) {
            out << label << '\t' << i << '\t' << kernels[i].name << '\t';
            writeList(out, kernels[i].digest);
            out << '\t' << kernels[i].exactCycles << '\t';
            writeList(out, kernels[i].freshProfile);
            out << '\n';
        }
    }
    return static_cast<bool>(out);
}

bool
matchesExpected(const std::vector<KernelRecord> &timeline,
                const std::vector<ExpectedKernel> &expected)
{
    if (timeline.size() != expected.size())
        return false;
    for (size_t i = 0; i < timeline.size(); ++i)
        if (timeline[i].name != expected[i].name ||
            statDigest(timeline[i]) != expected[i].digest)
            return false;
    return true;
}

PointCheck
checkPoint(const SweepPoint &pt, const Graph &graph,
           const std::vector<bool> &exactFor, int lanes)
{
    const UserParams &p = pt.params;
    ModelConfig cfg = p.modelConfig();
    cfg.comp = FrameworkAdapter(p.framework)
                   .resolveCompModel(cfg.model, cfg.comp);
    GnnPipeline pipe(graph, cfg);
    DeviceAllocator alloc;
    std::vector<KernelLaunch> launches;
    for (const OpNode &n : pipe.opGraph().nodes()) {
        n.kernel->execute();
        launches.push_back(n.kernel->makeLaunch(alloc));
    }

    PointCheck res;
    res.outputErr = outputError(
        pipe.output(), referenceForward(graph, cfg, pipe.weights()));
    res.exactCycles.assign(launches.size(), 0);
    if (p.profileCaches) {
        HwProfiler prof(engineProfilerConfig(p, p.resolveGpuConfig()));
        for (const KernelLaunch &launch : launches)
            res.freshProfile.push_back(prof.profile(launch));
    }

    std::vector<size_t> todo;
    for (size_t i = 0; i < launches.size() && i < exactFor.size(); ++i)
        if (exactFor[i])
            todo.push_back(i);
    if (todo.empty())
        return res;

    GpuConfig gpu = p.resolveGpuConfig();
    gpu.sampleMode = CtaSampleMode::Off;
    SimOptions opts = engineSimOptions(p);
    opts.numThreads = 1;
    const int n = std::clamp(lanes, 1, static_cast<int>(todo.size()));
    std::vector<std::unique_ptr<GpuSimulator>> sims;
    for (int l = 0; l < n; ++l)
        sims.push_back(std::make_unique<GpuSimulator>(gpu));
    std::vector<std::exception_ptr> errors(todo.size());
    ThreadPool pool(n);
    pool.parallelFor(todo.size(), [&](size_t i, int lane) {
        try {
            res.exactCycles[todo[i]] =
                sims[static_cast<size_t>(lane)]
                    ->run(launches[todo[i]], opts)
                    .cycles;
        } catch (...) {
            errors[i] = std::current_exception();
        }
    });
    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
    return res;
}

} // namespace perfbench
