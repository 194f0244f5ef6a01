/**
 * @file
 * Plain-text edge-list I/O so users can bring their own graphs, the
 * "add a specific dataset" extendability axis of Table III.
 */

#ifndef GSUITE_GRAPH_EDGELISTIO_HPP
#define GSUITE_GRAPH_EDGELISTIO_HPP

#include <string>

#include "graph/Graph.hpp"

namespace gsuite {

/**
 * Write "u v" lines (one edge per line) preceded by a header comment
 * with node count and feature length. fatal() on I/O error.
 */
void saveEdgeList(const Graph &g, const std::string &path);

/**
 * Read an edge list written by saveEdgeList() or a bare "u v" file.
 * For bare files the node count is inferred as max id + 1 and the
 * feature length is @p default_flen. fatal() on malformed input;
 * throws RunException(RunError::Config) naming @p path when the list
 * has no nodes or no edges.
 */
Graph loadEdgeList(const std::string &path, int64_t default_flen = 16,
                   uint64_t feature_seed = 7);

} // namespace gsuite

#endif // GSUITE_GRAPH_EDGELISTIO_HPP
