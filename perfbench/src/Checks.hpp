/**
 * @file
 * Output checks. Simulated and profiled statistics are deterministic,
 * so they are checked for equality, never scored:
 *  - against the values recorded in expected/ for the seeds recorded
 *    there;
 *  - between repeated passes of one run, and between the traced and
 *    untraced runs, for every seed.
 * Functional outputs are compared with referenceForward within a
 * tolerance. The exact (unsampled) simulation of a CTA-sampled
 * launch is the reference its estimate is judged against.
 */

#ifndef PERFBENCH_CHECKS_HPP
#define PERFBENCH_CHECKS_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/Graph.hpp"
#include "suite/SweepSpec.hpp"
#include "engine/ExecutionEngine.hpp"
#include "tensor/DenseMatrix.hpp"

namespace perfbench {

/** Largest accepted output error (see outputError). */
constexpr double kOutputTolerance = 1e-3;

/**
 * The deterministic statistics of one kernel record, in a fixed
 * order: sim cycles, warp instructions, L1/L2 hits and misses, DRAM
 * bytes and the stall cycles of every class (when simulated), then
 * the profiler's L1 accesses (when profiled).
 *
 * The profiler's hit/miss split is left out: with runs > 1 the
 * engine keeps one DeviceAllocator across runs, keyed by host
 * pointers, so the addresses of runs 2..N - and with them the split -
 * depend on where the host heap places each run's buffers. That
 * split is checked against a fresh-allocator profile within
 * kProfileDriftTolerance instead (see profileDrift).
 */
std::vector<uint64_t> statDigest(const gsuite::KernelRecord &rec);

/** Largest accepted profileDrift of a multi-run point. */
constexpr double kProfileDriftTolerance = 0.1;

/** Profiler counters in record order: L1 hits, L1 misses, L2 hits,
 *  L2 misses. */
std::vector<uint64_t> profileCounts(const gsuite::HwProfileResult &hw);

/** Max absolute difference of the L1 and L2 hit rates. */
double profileDrift(const gsuite::HwProfileResult &a,
                    const gsuite::HwProfileResult &b);

/** True if both timelines have the same kernels with equal digests. */
bool sameStats(const std::vector<gsuite::KernelRecord> &a,
               const std::vector<gsuite::KernelRecord> &b);

/** Max |out - ref| over max(1, max |ref|); +inf on shape mismatch. */
double outputError(const gsuite::DenseMatrix &out,
                   const gsuite::DenseMatrix &ref);

/** Recorded statistics of one kernel. */
struct ExpectedKernel {
    std::string name;
    std::vector<uint64_t> digest;
    /** Exact simulated cycles of a CTA-sampled launch (0 if not). */
    uint64_t exactCycles = 0;
    /** profileCounts of a fresh-allocator run (empty if unprofiled). */
    std::vector<uint64_t> freshProfile;
};

/** Recorded statistics by point label. */
using ExpectedStats =
    std::map<std::string, std::vector<ExpectedKernel>>;

/** Path of the record for (workload, seed) under @p dir. */
std::string expectedPath(const std::string &dir,
                         const std::string &workload, uint64_t seed);

/** Read a record; false if the file does not exist. Throws
 *  std::runtime_error on a malformed file. */
bool readExpected(const std::string &path, ExpectedStats &out);

/** Write a record. Returns false on I/O error. */
bool writeExpected(const std::string &path, const ExpectedStats &stats);

/** Per-record match against a recorded point; false on any
 *  difference, including a different kernel list. */
bool matchesExpected(const std::vector<gsuite::KernelRecord> &timeline,
                     const std::vector<ExpectedKernel> &expected);

/** Result of re-running one point for its checks. */
struct PointCheck {
    double outputErr = 0.0;
    /** Exact cycles per timeline record (0 where not requested). */
    std::vector<uint64_t> exactCycles;
    /** Profile of each launch on the fresh allocator (profiled
     *  points only; empty otherwise). */
    std::vector<gsuite::HwProfileResult> freshProfile;
};

/**
 * Rebuild @p pt's pipeline on @p graph, execute it node by node with
 * launches built in schedule order on a fresh DeviceAllocator (as
 * the engine does), and compare the output with referenceForward.
 * Profiled points profile every launch. Records flagged in
 * @p exactFor are then simulated with CTA sampling off on @p lanes
 * concurrent lanes, one SM thread each.
 */
PointCheck checkPoint(const gsuite::SweepPoint &pt,
                      const gsuite::Graph &graph,
                      const std::vector<bool> &exactFor, int lanes);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HPP
