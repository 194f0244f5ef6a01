#include "Metrics.hpp"

namespace perfbench {

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> specs{
        {"setup_s", "s", "lower"},
        {"wall_s", "s", "lower"},
        {"func_kernel_s", "s", "lower"},
        {"peak_rss_mb", "MB", "lower"},
    };
    return specs;
}

const std::vector<std::string> &
kernelClassNames()
{
    static const std::vector<std::string> names{
        "sgemm", "SpMM", "SpGEMM", "scatter", "indexSelect",
        "elementwise"};
    return names;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> specs = [] {
        std::vector<MetricSpec> s{
            {"graph.load_ms", "ms", "lower"},
            {"models.build_ms", "ms", "lower"},
            {"kernels.execute_ms", "ms", "lower"},
        };
        for (const std::string &c : kernelClassNames())
            s.push_back({"kernels." + c + ".execute_ms", "ms", "lower"});
        s.push_back({"simgpu.launch_ms", "ms", "lower"});
        s.push_back({"simgpu.run_ms", "ms", "lower"});
        for (const std::string &c : kernelClassNames())
            s.push_back({"simgpu." + c + ".run_ms", "ms", "lower"});
        s.push_back({"simgpu.ns_per_warp_instr", "ns", "lower"});
        s.push_back({"simgpu.run_ms_auto", "ms", "lower"});
        s.push_back({"simgpu.sm_thread_eff", "ratio", "higher"});
        for (const std::string &c : kernelClassNames()) {
            s.push_back({"simgpu." + c + ".run_ms_auto", "ms", "lower"});
            s.push_back(
                {"simgpu." + c + ".sm_thread_eff", "ratio", "higher"});
        }
        const std::vector<MetricSpec> rest{
            {"simgpu.sample_plan_ms", "ms", "lower"},
            {"simgpu.sampled_ctas_ratio", "ratio", "lower"},
            {"simgpu.warp_instrs", "count", "lower"},
            {"simgpu.cycles", "count", "lower"},
            {"simgpu.ctas_simulated", "count", "lower"},
            {"simgpu.classify_evals", "count", "lower"},
            {"simgpu.fast_forward_cycles", "count", "higher"},
            {"simgpu.trace_bytes_peak", "B", "lower"},
            {"simgpu.l1_hit_ratio", "ratio", "higher"},
            {"simgpu.l2_hit_ratio", "ratio", "higher"},
            {"simgpu.stall_mshr_full_share", "ratio", "lower"},
            {"simgpu.dram_bytes", "B", "lower"},
            {"simgpu.dram_row_hit_ratio", "ratio", "higher"},
        };
        s.insert(s.end(), rest.begin(), rest.end());
        for (const std::string &c : kernelClassNames())
            s.push_back({"simgpu." + c + ".stall_mshr_full_share",
                         "ratio", "lower"});
        const std::vector<MetricSpec> tail{
            {"profiler.profile_ms", "ms", "lower"},
            {"profiler.l1_hit_ratio", "ratio", "higher"},
            {"profiler.l2_hit_ratio", "ratio", "higher"},
            {"profiler.layout_drift_kernels", "count", "lower"},
            {"profiler.layout_drift_max", "ratio", "lower"},
            {"engine.self_ms", "ms", "lower"},
            {"engine.lane_eff", "ratio", "higher"},
            {"suite.emit_ms", "ms", "lower"},
            {"trace.overhead_pct", "%", "lower"},
            {"sim_winstr_per_s", "1/s", "higher"},
            {"sim_cycles_per_s", "1/s", "higher"},
            {"sample_err_p50", "ratio", "lower"},
            {"sample_err_max", "ratio", "lower"},
            {"sample_bar_cover", "ratio", "higher"},
            {"failed_ratio", "ratio", "lower"},
        };
        s.insert(s.end(), tail.begin(), tail.end());
        return s;
    }();
    return specs;
}

bool
validMetricName(const std::string &name)
{
    if (name.empty())
        return false;
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                        c == '-';
        if (!ok)
            return false;
    }
    return true;
}

} // namespace perfbench
