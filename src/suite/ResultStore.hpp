/**
 * @file
 * The unified result table for sweeps: one SweepResult per expanded
 * SweepPoint, ordered by point index, with per-class aggregation
 * done once here instead of per bench. Emitters cover the three
 * output shapes every bench needs: an aligned console table, CSV
 * rows (standard or custom cells), and a JSON dump with per-run
 * samples for trend tracking.
 */

#ifndef GSUITE_SUITE_RESULTSTORE_HPP
#define GSUITE_SUITE_RESULTSTORE_HPP

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "suite/Runner.hpp"
#include "suite/SweepSpec.hpp"
#include "util/RunError.hpp"

namespace gsuite {

/** Outcome of one sweep point, successful or failed. */
struct SweepResult {
    SweepPoint point;
    bool ok = false;
    std::string error; ///< failure description when !ok
    /** Failure taxonomy when !ok (None while ok). */
    RunError errorKind = RunError::None;

    RunOutcome outcome; ///< valid only when ok

    // Aggregations over outcome.timeline, computed once on insert.
    std::map<KernelClass, double> wallByClass;
    std::map<KernelClass, KernelStats> simByClass;
    std::map<KernelClass, HwProfileResult> hwByClass;
};

/** Typed, index-ordered table of sweep results. */
class ResultStore
{
  public:
    /** Size the table for @p n points (all slots empty/failed). */
    void resize(size_t n);

    /**
     * Install the result for its point's index slot, computing the
     * per-class aggregations. Thread-safe for distinct indices.
     */
    void put(SweepResult result);

    size_t size() const { return results.size(); }
    bool empty() const { return results.empty(); }
    const SweepResult &at(size_t i) const;
    std::vector<SweepResult>::const_iterator
    begin() const { return results.begin(); }
    std::vector<SweepResult>::const_iterator
    end() const { return results.end(); }

    /** Count of failed points. */
    size_t failures() const;
    bool allOk() const { return failures() == 0; }

    /** Lookup by exact label; nullptr if absent. */
    const SweepResult *find(const std::string &label) const;

    /** First result whose point matches; nullptr if none. */
    const SweepResult *
    find(const std::function<bool(const SweepPoint &)> &pred) const;

    /** Render a one-row-per-point summary table. */
    std::string toTable(const std::string &title = "sweep") const;

    /** Print toTable() to stdout. */
    void printTable(const std::string &title = "sweep") const;

    /**
     * Standard CSV: one row per point with identity columns and
     * end-to-end/kernel timing summaries. Empty path = no-op.
     */
    void toCsv(const std::string &path) const;

    /**
     * Custom CSV: @p rowsFn maps each result to zero or more rows
     * matching @p header. Iteration order is point order. Empty
     * path = no-op.
     */
    using RowsFn = std::function<std::vector<std::vector<std::string>>(
        const SweepResult &)>;
    void toCsv(const std::string &path,
               const std::vector<std::string> &header,
               const RowsFn &rowsFn) const;

    /**
     * JSON dump: per-point identity, end-to-end stats with the
     * underlying per-run samples, custom metrics, and per-class sim
     * statistics. @p meta (numbers) and @p text_meta (strings) land
     * in a top-level "meta" object. fatal() on I/O error; empty
     * path = no-op.
     */
    void toJson(const std::string &path,
                const std::map<std::string, double> &meta = {},
                const std::map<std::string, std::string> &text_meta =
                    {}) const;

  private:
    std::vector<SweepResult> results;
};

} // namespace gsuite

#endif // GSUITE_SUITE_RESULTSTORE_HPP
