#include "Host.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <thread>

#include "util/ThreadPool.hpp"

namespace perfbench {

using namespace gsuite;

int
hostNproc()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return hostHardwareConcurrency();
    return std::max(1, CPU_COUNT(&set));
}

int
hostHardwareConcurrency()
{
    return static_cast<int>(std::thread::hardware_concurrency());
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

int
launchLanes(const UserParams &p)
{
    if (p.engine != EngineKind::Sim)
        return 1;
    if (p.simParallelLaunches > 0)
        return p.simParallelLaunches;
    return std::min(4, ThreadPool::defaultLanes());
}

int
autoSmThreads(const GpuConfig &gpu)
{
    return std::clamp(ThreadPool::defaultLanes(), 1, gpu.numSms);
}

int
smThreadsPerLaunch(const UserParams &p, const GpuConfig &gpu)
{
    if (p.engine != EngineKind::Sim)
        return 0;
    // Lanes run every launch on a single-threaded simulator.
    if (launchLanes(p) > 1)
        return 1;
    return p.simThreads > 0 ? std::clamp(p.simThreads, 1, gpu.numSms)
                            : autoSmThreads(gpu);
}

SimOptions
engineSimOptions(const UserParams &p)
{
    SimOptions so;
    so.maxCtas = p.maxCtas;
    so.numThreads = p.simThreads;
    so.cycleCeiling = p.cycleCeiling;
    return so;
}

HwProfilerConfig
engineProfilerConfig(const UserParams &p, const GpuConfig &gpu)
{
    HwProfilerConfig hc;
    hc.numThreads = p.simThreads;
    hc.numSms = gpu.numSms;
    hc.smSampleFactor = gpu.smSampleFactor;
    hc.maxCtas = p.maxCtas;
    return hc;
}

int
profilerThreads(const UserParams &p, const GpuConfig &gpu)
{
    if (!p.profileCaches)
        return 0;
    const int t = p.simThreads > 0
                      ? p.simThreads
                      : std::min(ThreadPool::defaultLanes(), gpu.numSms);
    return std::clamp(t, 1, gpu.numSms);
}

} // namespace perfbench
