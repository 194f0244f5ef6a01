#include "suite/ResultStore.hpp"

#include <cstdio>
#include <set>

#include "frameworks/FrameworkAdapter.hpp"
#include "hwdb/HwConfigFile.hpp"
#include "hwdb/HwPresets.hpp"
#include "util/Csv.hpp"
#include "util/Logging.hpp"
#include "util/Table.hpp"

namespace gsuite {

namespace {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out += c;
    }
    return out;
}

const char *
engineName(EngineKind e)
{
    return e == EngineKind::Sim ? "sim" : "functional";
}

/**
 * Identity of the machine a point effectively simulated: the gpu
 * spec plus any engaged scheduler/l1-bypass overrides, so ablation
 * variants sharing one spec get distinct provenance entries.
 */
std::string
effectiveGpuKey(const UserParams &p)
{
    std::string key = p.gpu;
    if (p.scheduler)
        key += std::string("+scheduler=") +
               schedulerPolicyName(*p.scheduler);
    if (p.l1BypassLoads)
        key += std::string("+l1-bypass=") +
               (*p.l1BypassLoads ? "on" : "off");
    return key;
}

} // namespace

void
ResultStore::resize(size_t n)
{
    results.resize(n);
    for (size_t i = 0; i < n; ++i)
        results[i].point.index = i;
}

void
ResultStore::put(SweepResult result)
{
    panicIf(result.point.index >= results.size(),
            "SweepResult index out of range");
    if (result.ok) {
        result.wallByClass = wallUsByClass(result.outcome.timeline);
        result.simByClass = simStatsByClass(result.outcome.timeline);
        for (const auto &rec : result.outcome.timeline) {
            if (!rec.hasHw)
                continue;
            HwProfileResult &agg = result.hwByClass[rec.kind];
            agg.l1Hits += rec.hw.l1Hits;
            agg.l1Misses += rec.hw.l1Misses;
            agg.l2Hits += rec.hw.l2Hits;
            agg.l2Misses += rec.hw.l2Misses;
        }
    }
    results[result.point.index] = std::move(result);
}

const SweepResult &
ResultStore::at(size_t i) const
{
    panicIf(i >= results.size(), "ResultStore index out of range");
    return results[i];
}

size_t
ResultStore::failures() const
{
    size_t n = 0;
    for (const auto &r : results)
        n += r.ok ? 0 : 1;
    return n;
}

const SweepResult *
ResultStore::find(const std::string &label) const
{
    for (const auto &r : results)
        if (r.point.label == label)
            return &r;
    return nullptr;
}

const SweepResult *
ResultStore::find(
    const std::function<bool(const SweepPoint &)> &pred) const
{
    for (const auto &r : results)
        if (pred(r.point))
            return &r;
    return nullptr;
}

std::string
ResultStore::toTable(const std::string &title) const
{
    TablePrinter table(title);
    table.header({"point", "status", "end-to-end ms", "kernel ms",
                  "sim cycles"});
    for (const auto &r : results) {
        if (!r.ok) {
            table.row({r.point.label, "FAIL: " + r.error});
            continue;
        }
        uint64_t cycles = 0;
        for (const auto &[cls, st] : r.simByClass)
            cycles += st.cycles;
        table.row({r.point.label, "ok",
                   fmtDouble(r.outcome.meanEndToEndUs / 1e3, 3),
                   fmtDouble(r.outcome.meanKernelUs / 1e3, 3),
                   cycles ? std::to_string(cycles) : "-"});
    }
    return table.render();
}

void
ResultStore::printTable(const std::string &title) const
{
    std::fputs(toTable(title).c_str(), stdout);
    std::fflush(stdout);
}

void
ResultStore::toCsv(const std::string &path) const
{
    CsvWriter csv(path);
    csv.header({"label", "variant", "gpu", "framework", "model",
                "comp", "dataset", "engine", "scale", "ok", "error",
                "error_kind", "runs", "end_to_end_us_mean",
                "end_to_end_us_min", "end_to_end_us_max",
                "kernel_us_mean", "trace_path"});
    for (const auto &r : results) {
        const UserParams &p = r.point.params;
        csv.row({r.point.label, r.point.variant, p.gpu,
                 frameworkName(p.framework), gnnModelName(p.model),
                 compModelName(p.comp), p.dataset,
                 engineName(p.engine), r.outcome.scaleDescription,
                 r.ok ? "1" : "0", r.error,
                 r.ok ? "" : runErrorName(r.errorKind),
                 std::to_string(p.runs),
                 fmtDouble(r.outcome.meanEndToEndUs, 3),
                 fmtDouble(r.outcome.minEndToEndUs, 3),
                 fmtDouble(r.outcome.maxEndToEndUs, 3),
                 fmtDouble(r.outcome.meanKernelUs, 3),
                 r.outcome.tracePath});
    }
}

void
ResultStore::toCsv(const std::string &path,
                   const std::vector<std::string> &header,
                   const RowsFn &rowsFn) const
{
    CsvWriter csv(path);
    csv.header(header);
    for (const auto &r : results)
        for (const auto &row : rowsFn(r))
            csv.row(row);
}

void
ResultStore::toJson(const std::string &path,
                    const std::map<std::string, double> &meta,
                    const std::map<std::string, std::string> &text_meta)
    const
{
    if (path.empty())
        return;
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("cannot write '%s'", path.c_str());

    auto samples = [&](const std::vector<double> &v) {
        std::fprintf(f, "[");
        for (size_t i = 0; i < v.size(); ++i)
            std::fprintf(f, "%s%.3f", i ? ", " : "", v[i]);
        std::fprintf(f, "]");
    };

    std::fprintf(f, "{\n  \"meta\": {");
    {
        bool first = true;
        for (const auto &[key, value] : meta) {
            std::fprintf(f, "%s\"%s\": %.6g", first ? "" : ", ",
                         jsonEscape(key).c_str(), value);
            first = false;
        }
        for (const auto &[key, value] : text_meta) {
            std::fprintf(f, "%s\"%s\": \"%s\"", first ? "" : ", ",
                         jsonEscape(key).c_str(),
                         jsonEscape(value).c_str());
            first = false;
        }
    }
    std::fprintf(f, "},\n");

    // Full hardware provenance: every distinct machine the sweep
    // *simulated* (functional points never touch a GPU model), as
    // the complete hwdb key table, keyed by the effective config —
    // gpu spec plus engaged overrides, so an ablation's gto and lrr
    // points get separate entries (each point's "gpu_config" field
    // names its entry). Run-time snapshots take precedence so edits
    // to a file: spec after the run cannot misreport what executed;
    // preset-based keys resolve through UserParams otherwise; a
    // file: spec with no snapshot is marked unavailable rather than
    // re-read.
    {
        struct Provenance {
            const std::vector<std::pair<std::string, std::string>>
                *snapshot = nullptr;
            const UserParams *params = nullptr;
        };
        std::map<std::string, Provenance> configs;
        for (const auto &r : results) {
            const UserParams &p = r.point.params;
            if (p.engine != EngineKind::Sim || p.gpu.empty() ||
                p.gpu.find(',') != std::string::npos)
                continue;
            Provenance &prov = configs[effectiveGpuKey(p)];
            if (!prov.params)
                prov.params = &p;
            if (!prov.snapshot &&
                !r.outcome.gpuConfigSnapshot.empty())
                prov.snapshot = &r.outcome.gpuConfigSnapshot;
        }
        std::fprintf(f, "  \"gpu_configs\": {");
        bool first_cfg = true;
        for (const auto &[key, prov] : configs) {
            std::fprintf(f, "%s\n    \"%s\": {",
                         first_cfg ? "" : ",",
                         jsonEscape(key).c_str());
            first_cfg = false;
            std::vector<std::pair<std::string, std::string>> kv;
            if (prov.snapshot)
                kv = *prov.snapshot;
            else if (!isFileGpuSpec(prov.params->gpu))
                kv = gpuConfigKeyValues(
                    prov.params->resolveGpuConfig());
            else
                kv = {{"unavailable",
                       "file spec with no run-time snapshot"}};
            bool first_kv = true;
            for (const auto &[k, v] : kv) {
                std::fprintf(f, "%s\"%s\": \"%s\"",
                             first_kv ? "" : ", ",
                             jsonEscape(k).c_str(),
                             jsonEscape(v).c_str());
                first_kv = false;
            }
            std::fprintf(f, "}");
        }
        std::fprintf(f, "%s},\n", configs.empty() ? "" : "\n  ");
    }

    std::fprintf(f, "  \"points\": [\n");
    for (size_t i = 0; i < results.size(); ++i) {
        const SweepResult &r = results[i];
        const UserParams &p = r.point.params;
        const RunOutcome &o = r.outcome;
        std::fprintf(
            f,
            "    {\"label\": \"%s\", \"variant\": \"%s\", "
            "\"gpu\": \"%s\", \"gpu_config\": \"%s\", "
            "\"framework\": \"%s\", \"model\": \"%s\", "
            "\"comp\": \"%s\", \"dataset\": \"%s\", "
            "\"engine\": \"%s\", \"ok\": %s",
            jsonEscape(r.point.label).c_str(),
            jsonEscape(r.point.variant).c_str(),
            jsonEscape(p.gpu).c_str(),
            p.engine == EngineKind::Sim
                ? jsonEscape(effectiveGpuKey(p)).c_str()
                : "",
            frameworkName(p.framework), gnnModelName(p.model),
            compModelName(p.comp), jsonEscape(p.dataset).c_str(),
            engineName(p.engine), r.ok ? "true" : "false");
        if (!r.ok)
            std::fprintf(f,
                         ", \"error\": \"%s\", "
                         "\"error_kind\": \"%s\"",
                         jsonEscape(r.error).c_str(),
                         runErrorName(r.errorKind));
        if (r.ok) {
            std::fprintf(f,
                         ",\n     \"end_to_end_us\": {\"mean\": %.3f, "
                         "\"min\": %.3f, \"max\": %.3f, \"samples\": ",
                         o.meanEndToEndUs, o.minEndToEndUs,
                         o.maxEndToEndUs);
            samples(o.endToEndSamplesUs);
            std::fprintf(f,
                         "},\n     \"kernel_us\": {\"mean\": %.3f, "
                         "\"samples\": ",
                         o.meanKernelUs);
            samples(o.kernelSamplesUs);
            std::fprintf(f, "}");
            if (!o.tracePath.empty())
                std::fprintf(f, ",\n     \"trace_path\": \"%s\"",
                             jsonEscape(o.tracePath).c_str());
            if (!o.metrics.empty()) {
                std::fprintf(f, ",\n     \"metrics\": {");
                bool first = true;
                for (const auto &[key, value] : o.metrics) {
                    std::fprintf(f, "%s\"%s\": %.6g",
                                 first ? "" : ", ",
                                 jsonEscape(key).c_str(), value);
                    first = false;
                }
                std::fprintf(f, "}");
            }
            if (!r.simByClass.empty()) {
                std::fprintf(f, ",\n     \"classes\": [");
                bool first = true;
                for (const auto &[cls, st] : r.simByClass) {
                    std::fprintf(
                        f,
                        "%s{\"class\": \"%s\", \"cycles\": %llu, "
                        "\"warp_instrs\": %llu, "
                        "\"l1_hit_rate\": %.4f, "
                        "\"l2_hit_rate\": %.4f, "
                        "\"trace_bytes_peak\": %llu",
                        first ? "" : ", ", kernelClassShortForm(cls),
                        static_cast<unsigned long long>(st.cycles),
                        static_cast<unsigned long long>(
                            st.warpInstrs),
                        st.l1HitRate(), st.l2HitRate(),
                        static_cast<unsigned long long>(
                            st.traceBytesPeak));
                    // Sampled-simulation estimates: only present when
                    // the class actually sampled, so off-mode output
                    // is byte-identical to before the field existed.
                    if (st.sampledCtas > 0) {
                        std::fprintf(
                            f,
                            ", \"sampled_ctas\": %lld, "
                            "\"sample_strata\": %d",
                            static_cast<long long>(st.sampledCtas),
                            st.sampleStrata);
                        for (const SampleEstimate &e : st.estimates)
                            std::fprintf(
                                f, ", \"est_%s\": %.6g, "
                                   "\"err_%s\": %.6g",
                                jsonEscape(e.name).c_str(), e.est,
                                jsonEscape(e.name).c_str(), e.err);
                    }
                    std::fprintf(f, "}");
                    first = false;
                }
                std::fprintf(f, "]");
            }
        }
        std::fprintf(f, "}%s\n",
                     i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    if (std::fclose(f) != 0)
        fatal("write error on '%s'", path.c_str());
}

} // namespace gsuite
