/**
 * @file
 * The benchmark's named workloads. Each is a SweepSpec over the
 * suite's public grid axes; the workload seed feeds the dataset and
 * R-MAT generator seeds (and, through UserParams::seed, the weight
 * initialisation), nothing else. Expansion is a pure function of
 * (name, seed). See perfbench/README.md for why each one exists.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "suite/SweepSpec.hpp"

namespace perfbench {

/** Seed whose simulated statistics are recorded in expected/. */
constexpr uint64_t kDefaultSeed = 7;

/** One named workload; its points run on one BenchSession sweep lane. */
struct Workload {
    std::string name;
    /** CTA-sampled points: audited against exact simulation. */
    bool sampled = false;
    gsuite::SweepSpec spec;
    std::vector<gsuite::SweepPoint> points; ///< spec.expand()
};

/** Every workload name, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/** Build workload @p name for @p seed; throws std::invalid_argument
 *  for unknown names. */
Workload makeWorkload(const std::string &name, uint64_t seed);

/** Key under which points share one loaded graph: everything
 *  loadDatasetFor derives the graph from. */
std::string graphKey(const gsuite::UserParams &params);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
