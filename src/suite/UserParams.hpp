/**
 * @file
 * The paper's "User Parameters" / "User Interface" layer (Fig. 1):
 * a GNN pipeline described by a handful of parameters, coming from a
 * defaults config file overridden by command-line options.
 */

#ifndef GSUITE_SUITE_USERPARAMS_HPP
#define GSUITE_SUITE_USERPARAMS_HPP

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "frameworks/Overheads.hpp"
#include "graph/Datasets.hpp"
#include "models/GnnModel.hpp"
#include "simgpu/GpuConfig.hpp"
#include "util/Options.hpp"

namespace gsuite {

/** Which measurement backend executes the pipeline. */
enum class EngineKind {
    Functional, ///< host execution + wall clock (the "real GPU" path)
    Sim,        ///< timing simulation (the "GPGPU-Sim" path)
};

/** Parse "functional"/"sim"; fatal() on unknown names. */
EngineKind engineKindFromName(const std::string &name);

/**
 * True if @p dataset names an on-disk edge list ("file:PATH") rather
 * than a Table IV generator.
 */
bool isFileDataset(const std::string &dataset);

/** The PATH part of a "file:PATH" dataset name. */
std::string fileDatasetPath(const std::string &dataset);

/**
 * Apply a --sample spec to @p cfg's sample.* keys. Grammar (':'
 * separated so ',' stays the sweep-axis separator):
 *
 *     off
 *     cta
 *     cta:0.125                 (fraction shorthand)
 *     cta:fraction=F:min_ctas=N:seed=K
 *
 * fatal() on malformed specs.
 */
void applyCtaSampleSpec(GpuConfig &cfg, const std::string &spec);

/** Everything a gSuite run is parameterized by. */
struct UserParams {
    /**
     * Table IV dataset name ("cora", "LJ", ...) or "file:PATH" for a
     * SNAP-style edge list loaded via graph/EdgeListIo.
     */
    std::string dataset = "cora";

    /**
     * Hardware model for the timing simulator: an hwdb preset name
     * ("v100-sim", "rtx2060s", "p100", "a100", ...) or "file:PATH"
     * for a gpgpusim-style hwdb config file. May hold a
     * comma-separated list as sweep shorthand — SweepSpec expands it
     * into a GPU axis; single-point resolution rejects lists.
     */
    std::string gpu = "v100-sim";

    GnnModelKind model = GnnModelKind::Gcn;
    CompModel comp = CompModel::Mp;
    Framework framework = Framework::Gsuite;
    EngineKind engine = EngineKind::Functional;

    int layers = 2;
    int hidden = 16;
    int outDim = 8;
    float ginEps = 0.1f;
    int runs = 3; ///< paper: "run three times; mean values collected"
    uint64_t seed = 7;

    /**
     * Batched inference: independent pipeline instances composed
     * into one op-graph per run (OpGraph::merge), their roots
     * issued concurrently. 1 = the classic single-request pipeline.
     * Per-replica statistics stay bit-identical to batch=1.
     */
    int batch = 1;

    bool profileCaches = false;

    /**
     * Plan-backed placement (--mem-plan): run(OpGraph&) plans the
     * device address layout from graph structure (src/memplan),
     * executes levels concurrently in the functional phase, and
     * reports planned/naive peak bytes. Off by default — naive
     * execution-order placement stays the A/B oracle; statistics
     * are bit-identical either way.
     */
    bool memPlan = false;

    /**
     * Worker threads per simulated launch (0 = auto: one SM thread
     * per launch, see SimOptions::numThreads; the cache profiler
     * resolves its own auto count). Statistics are bit-identical for
     * every value.
     */
    int simThreads = 0;
    /**
     * Independent launches simulated concurrently by the sim engine
     * (1 = serial, 0 = auto).
     */
    int simParallelLaunches = 1;

    /**
     * Sweep points executed concurrently by a BenchSession
     * (1 = serial, 0 = auto). BenchSession composes this with the
     * per-launch simThreads budget so the total worker count stays
     * bounded (see src/suite/README.md).
     */
    int sweepThreads = 1;

    /** CTA sampling cap forwarded to the timing simulator. */
    int64_t maxCtas = 2048;

    /**
     * Watchdog: fail a sim run with RunError::Timeout once any
     * kernel reaches this many simulated cycles. 0 disables. The
     * failure is deterministic (cycle-domain, not wall-clock).
     */
    uint64_t cycleCeiling = 0;

    /**
     * Watchdog cancel flag forwarded to the simulator; not a CLI
     * option — BenchSession installs a per-point flag that its
     * wall-clock watchdog raises. Non-owning.
     */
    const std::atomic<bool> *cancel = nullptr;
    /**
     * Warp scheduler override. Unset (the default) defers to the
     * gpu preset/file; --scheduler or an ablation variant engages
     * it on top of whatever machine the point runs on.
     */
    std::optional<SchedulerPolicy> scheduler;
    /** Ablation override: route global loads straight to L2. */
    std::optional<bool> l1BypassLoads;

    /**
     * CTA-sampling override (--sample): a spec for
     * applyCtaSampleSpec(), applied on top of the gpu preset/file's
     * sample.* keys. Empty (the default) defers to the preset. May
     * hold a comma-separated list as sweep shorthand — SweepSpec
     * expands it into the sample axis; single-point resolution
     * rejects lists.
     */
    std::string sample;

    /** Dataset scaling: <0 means "use the engine-appropriate
     *  default" (defaultSimScale / defaultFunctionalScale). */
    int64_t nodeDivisor = -1;
    int64_t edgeDivisor = -1;
    int64_t featureCap = -1;

    std::string csvOut; ///< optional CSV path for results

    /**
     * Chrome-trace output (--trace PATH): each executed point writes
     * a Perfetto-loadable trace of its final measurement run (see
     * src/obs/README.md). Multi-point sessions derive per-point
     * paths by suffixing ".pN" before the extension. Empty = no
     * trace unless the resolved gpu config sets trace.enabled, in
     * which case "trace.json" is used.
     */
    std::string tracePath;

    /**
     * Build params from an option set (config file + CLI merged),
     * reading every key the suite's interface honours; fatal() on
     * invalid values.
     */
    static UserParams fromOptions(const OptionSet &opts);

    /**
     * Parse argv. "--config FILE" is loaded first (defaults), then
     * the remaining options override it, exactly as the paper's
     * interface behaves. Keys fromOptions() does not read are
     * rejected with fatal() so typos surface.
     */
    static UserParams fromArgs(int argc, const char *const *argv);

    /** The dataset scale this run should use. */
    DatasetScale resolveScale() const;

    /**
     * The machine this point simulates: the gpu preset/file resolved
     * through hwdb, with the scheduler/l1-bypass overrides (when
     * engaged) applied on top. Validated; fatal() on a comma list
     * (sweeps must expand first) or an unresolvable spec.
     */
    GpuConfig resolveGpuConfig() const;

    /** Model hyperparameters as a ModelConfig. */
    ModelConfig modelConfig() const;

    /** One-line description for logs and bench output. */
    std::string describe() const;
};

} // namespace gsuite

#endif // GSUITE_SUITE_USERPARAMS_HPP
