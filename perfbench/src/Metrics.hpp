/**
 * @file
 * The benchmark's metric catalogue: every end-to-end and per-layer
 * metric by name, with its unit and direction. BENCHMARK.json lists
 * the same names (checked by `run.py --selftest`).
 */

#ifndef PERFBENCH_METRICS_HPP
#define PERFBENCH_METRICS_HPP

#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** One metric's identity. */
struct MetricSpec {
    std::string name;
    std::string unit;
    std::string better; ///< "lower" or "higher"
};

/** Untraced metrics, measured on every workload. */
const std::vector<MetricSpec> &endToEndMetrics();

/** Traced-run metrics; layers a workload never enters report 0. */
const std::vector<MetricSpec> &perLayerMetrics();

/** Kernel classes the per-class metrics are reported for. */
const std::vector<std::string> &kernelClassNames();

/** True if @p name matches [A-Za-z0-9_.-]+. */
bool validMetricName(const std::string &name);

/** Measured values by metric name. */
using MetricValues = std::map<std::string, double>;

} // namespace perfbench

#endif // PERFBENCH_METRICS_HPP
