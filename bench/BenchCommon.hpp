/**
 * @file
 * Shared helpers for the per-figure bench binaries: the paper's
 * model/dataset grids and labels and the common CLI flags. All grid
 * execution lives in suite/SweepSpec + suite/BenchSession; all
 * result aggregation and emission in suite/ResultStore.
 */

#ifndef GSUITE_BENCH_BENCHCOMMON_HPP
#define GSUITE_BENCH_BENCHCOMMON_HPP

#include <string>
#include <vector>

#include "suite/BenchSession.hpp"
#include "util/Csv.hpp"
#include "util/Options.hpp"
#include "util/Table.hpp"

namespace gsuite::bench {

/** The five Table IV datasets in paper order. */
const std::vector<DatasetId> &paperDatasets();

/** Two-letter dataset label (CR/CS/PB/RD/LJ). */
const char *dsShort(DatasetId id);

/** Dataset short form from a point's dataset name. */
std::string dsShortByName(const std::string &name);

/** The three paper models in paper order. */
const std::vector<GnnModelKind> &paperModels();

/**
 * SweepSpec::skip predicate for the combination the paper found no
 * implementation of: gSuite SpMM GraphSAGE (Section II-C). DGL runs
 * SAGE via SpMM, so only the gSuite path is unsupported.
 */
bool sageSpmmUnsupported(const UserParams &p);

/** Percentage formatting for figure cells. */
std::string pct(double fraction);

/**
 * A bench's command line: the shared flags every bench honours
 * (--list-gpus, --layers, --sweep-threads, --gpu, --csv, --trace,
 * --quiet) plus the bench's extra ones, parsed by
 * UserParams::fromOptions, and --quick, the one bench-only flag.
 */
struct BenchArgs {
    /**
     * Read the flags from @p cli on top of @p defaults. A bench with
     * flags of its own reads them from @p cli afterwards, then calls
     * cli.rejectUnread().
     */
    explicit BenchArgs(const OptionSet &cli,
                       std::initializer_list<std::string> extra = {},
                       const UserParams &defaults = {});

    /** For a bench with no flags of its own: parse argv and reject
     *  every flag BenchArgs does not read. */
    BenchArgs(int argc, char **argv);

    UserParams params;  ///< the parsed shared flags
    bool quick = false; ///< smaller CTA budget for smoke runs

    int64_t maxCtas() const { return quick ? 256 : 2048; }

    /** The params as a simulator sweep base: gSuite, sim engine,
     *  1 run, --quick's CTA budget, auto thread counts. */
    UserParams simBase() const;

    /** The params as a functional sweep base: gSuite, functional
     *  engine, mean of 3 runs (1 with --quick). */
    UserParams functionalBase() const;

    /** Session options honouring --sweep-threads. */
    BenchSession::Options sessionOptions() const;
};

/** Print the standard bench banner with scale disclosure. */
void banner(const std::string &title, const std::string &note);

} // namespace gsuite::bench

#endif // GSUITE_BENCH_BENCHCOMMON_HPP
