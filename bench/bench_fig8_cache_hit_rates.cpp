/**
 * @file
 * Fig. 8: L1 and L2 cache hit rates of the MP kernels, comparing the
 * hardware-profiler measurement path ("NVProf") with the timing
 * simulator ("Sim").
 *
 * Expected shape: hit rates fall as datasets grow; L1 profiler/sim
 * values align better than L2; the biggest divergence shows on the
 * small citation graphs; indexSelect's L1 hit rate is very low on
 * big inputs (the paper's L1-bypass suggestion).
 */

#include <cmath>
#include <cstdio>

#include "bench/BenchCommon.hpp"

using namespace gsuite;
using namespace gsuite::bench;

int
main(int argc, char **argv)
{
    const BenchArgs args(argc, argv);
    banner("Fig. 8: L1/L2 hit rates, hardware profiler vs simulator "
           "(%)",
           "MP kernels at sim dataset scales; hw = V100-geometry "
           "cache model (full-line L2 fills), sim = GPGPU-Sim-like "
           "sectored 3MB L2.");

    const SweepSpec spec = SweepSpec{}
                               .base(args.simBase())
                               .profileCaches(true)
                               .models(paperModels())
                               .datasets(paperDatasets());

    const ResultStore store =
        BenchSession(args.sessionOptions()).run(spec);

    double l1_gap = 0, l2_gap = 0;
    int count = 0;
    auto rows = [&](const SweepResult &r)
        -> std::vector<std::vector<std::string>> {
        std::vector<std::vector<std::string>> out;
        if (!r.ok)
            return out;
        for (const KernelClass cls :
             {KernelClass::Sgemm, KernelClass::IndexSelect,
              KernelClass::Scatter}) {
            auto sim_it = r.simByClass.find(cls);
            auto hw_it = r.hwByClass.find(cls);
            if (sim_it == r.simByClass.end() ||
                hw_it == r.hwByClass.end())
                continue;
            const KernelStats &s = sim_it->second;
            const HwProfileResult &h = hw_it->second;
            out.push_back({gnnModelName(r.point.params.model),
                           dsShortByName(r.point.params.dataset),
                           kernelClassShortForm(cls),
                           pct(h.l1HitRate()), pct(s.l1HitRate()),
                           pct(h.l2HitRate()), pct(s.l2HitRate())});
            l1_gap += std::fabs(h.l1HitRate() - s.l1HitRate());
            l2_gap += std::fabs(h.l2HitRate() - s.l2HitRate());
            ++count;
        }
        return out;
    };

    TablePrinter table;
    table.header({"model", "dataset", "kernel", "L1 hw%", "L1 sim%",
                  "L2 hw%", "L2 sim%"});
    CsvWriter csv(args.params.csvOut);
    csv.header({"model", "dataset", "kernel", "l1_hw", "l1_sim",
                "l2_hw", "l2_sim"});
    for (const auto &r : store) {
        for (const auto &row : rows(r)) {
            table.row(row);
            csv.row(row);
        }
    }
    table.print();
    if (count > 0)
        std::printf("\nmean |hw - sim| gap: L1 %s%%, L2 %s%% "
                    "(paper: L1 more aligned than L2)\n",
                    pct(l1_gap / count).c_str(),
                    pct(l2_gap / count).c_str());
    return store.allOk() ? 0 : 1;
}
