/**
 * @file
 * Dataset loading: the paper's "Data Loader" stage (Fig. 1).
 *
 * loadDataset() produces a fully-featured Graph for one of the Table
 * IV datasets, optionally scaled down for timing simulation (DESIGN.md
 * §6). Generation is deterministic in (dataset, scale, seed).
 */

#ifndef GSUITE_GRAPH_DATASETS_HPP
#define GSUITE_GRAPH_DATASETS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "graph/DatasetInfo.hpp"
#include "graph/Graph.hpp"

namespace gsuite {

/** Scaling applied to a dataset before generation. */
struct DatasetScale {
    int64_t nodeDivisor = 1;    ///< |V| divided by this
    int64_t edgeDivisor = 1;    ///< |E| divided by this
    int64_t featureCap = 0;     ///< 0 = keep Table IV feature length
    /** Identity scale: the full Table IV statistics. */
    static DatasetScale full() { return {}; }
    bool isFull() const
    {
        return nodeDivisor == 1 && edgeDivisor == 1 && featureCap == 0;
    }
    /** Short description for bench output, e.g. "V/16 E/64 f<=64". */
    std::string describe() const;
};

/**
 * Default scaling for running a dataset on the timing simulator with
 * a tractable cycle count (DESIGN.md §6): small graphs run full size,
 * Reddit and LiveJournal are divided down.
 */
DatasetScale defaultSimScale(DatasetId id);

/**
 * Default scaling for functional/profiler runs: everything full-size
 * except LiveJournal, whose 4.8M nodes x 69M edges are divided by
 * 4/8 to fit comfortably in host memory.
 */
DatasetScale defaultFunctionalScale(DatasetId id);

/** Generate the dataset at the requested scale. */
Graph loadDataset(DatasetId id, const DatasetScale &scale,
                  uint64_t seed = 7);

/** Convenience overload resolving names like "cora" or "LJ". */
Graph loadDataset(const std::string &name, const DatasetScale &scale,
                  uint64_t seed = 7);

/**
 * Deterministic synthetic R-MAT dataset spec, the third dataset form
 * next to Table IV names and "file:PATH":
 *
 *     rmat:scale=S,ef=E,seed=K[,flen=F]
 *
 * nodes = 2^scale, edges = ef * nodes, features F-wide (default 16).
 * Generation is a pure function of the spec — the same spec yields a
 * bit-identical graph on every host, which is what lets sampled-
 * simulation benches open graph sizes no checked-in file could.
 */
struct RmatSpec {
    int scale = 14;
    int64_t edgeFactor = 8;
    uint64_t seed = 1;
    int64_t featureLen = 16;

    int64_t nodes() const { return int64_t{1} << scale; }
    int64_t edges() const { return edgeFactor * nodes(); }

    /** Canonical spec string (stable cache/label key). */
    std::string canonical() const;
};

/** True if @p dataset is an "rmat:..." spec. */
bool isRmatDataset(const std::string &dataset);

/**
 * Parse an "rmat:..." spec; throws RunException(RunError::Config) on
 * malformed input, so one bad sweep point fails alone.
 */
RmatSpec parseRmatSpec(const std::string &dataset);

/** Generate the spec'd graph (scale divisors apply on top). */
Graph loadRmatDataset(const RmatSpec &spec, const DatasetScale &scale);

/**
 * Split a comma-separated dataset list, keeping the commas inside an
 * "rmat:..." spec's key=value tail attached to their spec (a bare
 * "k=v" token continues the preceding ':'-bearing entry).
 */
std::vector<std::string> splitDatasetList(const std::string &list);

} // namespace gsuite

#endif // GSUITE_GRAPH_DATASETS_HPP
