/**
 * @file
 * Cross-GPU characterization bench — the hwdb subsystem's headline
 * scenario: the same GCN/GIN pipelines swept across every registered
 * machine preset through one BenchSession, so architectural effects
 * (cache capacity, DRAM bandwidth, SM count/generation) show up as
 * per-machine deltas on identical workloads.
 *
 *   --gpu SPECS     presets / file:PATH, comma-separated or "all"
 *                   (default: all registered machines)
 *   --dataset NAMES Table IV names, comma-separated (default: cora)
 *   --json FILE     output path (default BENCH_gpu_compare.json)
 *   --csv FILE      optional per-point CSV
 *   --sweep-threads N   concurrent points (stats are bit-identical
 *                   for every value)
 *   --quick         smaller scales/CTA budget for smoke runs
 *
 * Emits BENCH_gpu_compare.json via ResultStore::toJson, which
 * embeds the full hwdb key table of every machine in "gpu_configs"
 * (config provenance) next to the per-point statistics.
 */

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/BenchCommon.hpp"
#include "hwdb/HwPresets.hpp"
#include "util/Logging.hpp"
#include "util/StringUtils.hpp"

using namespace gsuite;
using namespace gsuite::bench;

int
main(int argc, char **argv)
{
    OptionSet cli;
    cli.parseArgs(argc, argv);
    const std::string json_path =
        cli.getString("json", "BENCH_gpu_compare.json");
    // Default to the full machine registry rather than one preset.
    UserParams defaults;
    defaults.gpu = join(sweepableHwPresetNames(), ',');
    const BenchArgs args(cli, {"dataset"}, defaults);
    cli.rejectUnread();

    const std::vector<std::string> gpus = split(args.params.gpu, ',');
    std::string gpu_note;
    for (const std::string &g : gpus)
        gpu_note += (gpu_note.empty() ? "" : ", ") + g;
    banner("cross-GPU comparison (hwdb presets)",
           "machines: " + gpu_note +
               " | same pipelines, same datasets, one session");

    UserParams base = args.simBase();
    if (args.quick) {
        base.featureCap = 16;
        base.nodeDivisor = 16;
        base.edgeDivisor = 16;
    }

    const SweepSpec spec =
        SweepSpec{}
            .base(base)
            .models({GnnModelKind::Gcn, GnnModelKind::Gin})
            .comps({CompModel::Mp});

    const ResultStore store =
        BenchSession(args.sessionOptions()).run(spec);

    // Per-machine table: simulated time uses each machine's own
    // clock, so "sim ms" is comparable across generations.
    TablePrinter table("per-machine simulator statistics");
    table.header({"point", "cycles", "sim ms", "L1 hit%", "L2 hit%",
                  "mem stall%", "vs v100-sim"});
    std::map<std::string, uint64_t> v100_cycles;
    for (const auto &r : store) {
        if (!r.ok)
            continue;
        if (r.point.params.gpu == "v100-sim") {
            const std::string key =
                gnnModelName(r.point.params.model) +
                std::string("/") + r.point.params.dataset;
            uint64_t cycles = 0;
            for (const auto &[cls, st] : r.simByClass)
                cycles += st.cycles;
            v100_cycles[key] = cycles;
        }
    }
    for (const auto &r : store) {
        if (!r.ok) {
            table.row({r.point.label, "FAIL: " + r.error});
            continue;
        }
        uint64_t cycles = 0;
        uint64_t l1h = 0, l1m = 0, l2h = 0, l2m = 0;
        uint64_t stall = 0, warp_cycles = 0;
        for (const auto &[cls, st] : r.simByClass) {
            cycles += st.cycles;
            l1h += st.l1Hits;
            l1m += st.l1Misses;
            l2h += st.l2Hits;
            l2m += st.l2Misses;
            stall += st.stallCycles[static_cast<size_t>(
                StallReason::MemoryDependency)];
            for (const uint64_t c : st.stallCycles)
                warp_cycles += c;
        }
        // Clock from the run-time snapshot — no config re-resolution
        // (a file: spec may have changed on disk since the run).
        double clock_ghz = 1.0;
        for (const auto &[key, value] :
             r.outcome.gpuConfigSnapshot)
            if (key == "core.clock_ghz")
                clock_ghz = std::stod(value);
        const double sim_ms =
            static_cast<double>(cycles) / (clock_ghz * 1e6);
        const std::string key =
            gnnModelName(r.point.params.model) + std::string("/") +
            r.point.params.dataset;
        const auto ref = v100_cycles.find(key);
        std::string rel = "-";
        if (ref != v100_cycles.end() && cycles > 0)
            rel = fmtDouble(static_cast<double>(ref->second) /
                                static_cast<double>(cycles),
                            2) +
                  "x";
        table.row({r.point.label, std::to_string(cycles),
                   fmtDouble(sim_ms, 3),
                   pct(l1h + l1m ? static_cast<double>(l1h) /
                                       static_cast<double>(l1h + l1m)
                                 : 0.0),
                   pct(l2h + l2m ? static_cast<double>(l2h) /
                                       static_cast<double>(l2h + l2m)
                                 : 0.0),
                   pct(warp_cycles
                           ? static_cast<double>(stall) /
                                 static_cast<double>(warp_cycles)
                           : 0.0),
                   rel});
    }
    table.print();

    store.toCsv(args.params.csvOut);
    store.toJson(json_path,
                 {{"machines", static_cast<double>(gpus.size())},
                  {"quick", args.quick ? 1.0 : 0.0}});
    std::printf("wrote %s\n", json_path.c_str());
    return store.allOk() ? 0 : 1;
}
