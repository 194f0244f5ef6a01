#include "graph/EdgeListIo.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "graph/Generators.hpp"
#include "util/Logging.hpp"
#include "util/RunError.hpp"
#include "util/StringUtils.hpp"

namespace gsuite {

void
saveEdgeList(const Graph &g, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open '%s' for writing", path.c_str());
    out << "# gsuite-edgelist nodes=" << g.numNodes()
        << " flen=" << g.featureLen() << "\n";
    for (int64_t i = 0; i < g.numEdges(); ++i)
        out << g.src[static_cast<size_t>(i)] << ' '
            << g.dst[static_cast<size_t>(i)] << '\n';
    if (!out)
        fatal("write error on '%s'", path.c_str());
}

Graph
loadEdgeList(const std::string &path, int64_t default_flen,
             uint64_t feature_seed)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open edge list '%s'", path.c_str());

    int64_t nodes = -1;
    int64_t flen = default_flen;
    std::vector<int64_t> src, dst;
    int64_t max_id = -1;

    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const std::string t = trim(line);
        if (t.empty())
            continue;
        if (t[0] == '#') {
            // Parse optional header attributes.
            std::istringstream hs(t.substr(1));
            std::string tok;
            while (hs >> tok) {
                int64_t v;
                if (startsWith(tok, "nodes=") &&
                    parseInt(tok.substr(6), v))
                    nodes = v;
                else if (startsWith(tok, "flen=") &&
                         parseInt(tok.substr(5), v) && v > 0)
                    flen = v;
            }
            continue;
        }
        std::istringstream ls(t);
        int64_t u, v;
        if (!(ls >> u >> v))
            fatal("%s:%d: expected 'u v', got '%s'", path.c_str(),
                  lineno, t.c_str());
        if (u < 0 || v < 0)
            fatal("%s:%d: negative node id", path.c_str(), lineno);
        src.push_back(u);
        dst.push_back(v);
        max_id = std::max({max_id, u, v});
    }
    if (nodes < 0)
        nodes = max_id + 1;
    // An empty graph has nothing to launch over: every kernel grid
    // would be empty, so reject it here, as a value one sweep point
    // can fail with.
    if (nodes == 0 || src.empty())
        throw RunException(
            RunError::Config,
            "edge list '" + path + "' has no " +
                (nodes == 0 ? "nodes" : "edges"));
    if (max_id >= nodes)
        fatal("edge list '%s' references node %ld but declares only "
              "%ld nodes",
              path.c_str(), (long)max_id, (long)nodes);

    Graph g(nodes, 0);
    for (size_t i = 0; i < src.size(); ++i)
        g.addEdge(src[i], dst[i]);
    Rng rng(feature_seed);
    fillFeatures(g, flen, rng);
    g.name = path;
    return g;
}

} // namespace gsuite
