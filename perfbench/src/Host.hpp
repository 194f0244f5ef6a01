/**
 * @file
 * Host facts, and what the library resolves for a point: the engine
 * options AbstractionModule::makeEngine builds and the thread counts
 * SimEngine::effectiveParallel, GpuSimulator::resolveThreads and
 * HwProfiler pick. Restating them lets the traced run call each
 * layer exactly as the engine does, and the benchmark refuse to run
 * when a resolved count would exceed the CPUs it may use.
 */

#ifndef PERFBENCH_HOST_HPP
#define PERFBENCH_HOST_HPP

#include "profiler/HwProfiler.hpp"
#include "simgpu/GpuConfig.hpp"
#include "simgpu/GpuSimulator.hpp"
#include "suite/UserParams.hpp"

namespace perfbench {

/** CPUs this process may run on (sched_getaffinity). */
int hostNproc();

/** std::thread::hardware_concurrency(). */
int hostHardwareConcurrency();

/** Peak resident set size of this process so far, MiB. */
double peakRssMb();

/** Concurrent launch lanes of a sim point (1 for functional). */
int launchLanes(const gsuite::UserParams &p);

/** SM threads GpuSimulator picks for SimOptions::numThreads = 0. */
int autoSmThreads(const gsuite::GpuConfig &gpu);

/** SM threads each launch of a sim point runs on. */
int smThreadsPerLaunch(const gsuite::UserParams &p,
                       const gsuite::GpuConfig &gpu);

/** The SimOptions AbstractionModule::makeEngine gives the engine. */
gsuite::SimOptions engineSimOptions(const gsuite::UserParams &p);

/** The HwProfilerConfig AbstractionModule::makeEngine gives the
 *  engine for machine @p gpu. */
gsuite::HwProfilerConfig
engineProfilerConfig(const gsuite::UserParams &p,
                     const gsuite::GpuConfig &gpu);

/** HwProfiler replay threads of a profiled point (0 if none). */
int profilerThreads(const gsuite::UserParams &p,
                    const gsuite::GpuConfig &gpu);

} // namespace perfbench

#endif // PERFBENCH_HOST_HPP
