// Graph traversal and structural queries: connectivity for the invariant
// oracles, cut vertices for the cut-point adversary, and the exact stretch
// reference. The tests' whole-graph references (components, diameter, cut
// size) live in tests/support/graph_reference.hpp. Every traversal runs over flat arrays indexed
// by NodeId (sized g.next_id(): ids index slots directly, tombstones and
// add_node_with_id gaps included) with a std::vector work queue — no
// hashing on any path.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "graph/graph.hpp"

namespace xheal::graph {

/// Distance entry of a node bfs_distances() did not reach (dead, gap, or
/// in another component).
inline constexpr std::size_t unreached = std::numeric_limits<std::size_t>::max();

/// BFS hop distances from `src`, indexed by NodeId and sized g.next_id():
/// src reads 0, every node outside src's component reads `unreached`.
std::vector<std::size_t> bfs_distances(const Graph& g, NodeId src);

/// True iff the graph is connected (the empty graph counts as connected).
bool is_connected(const Graph& g);

/// Articulation points (cut vertices) via Tarjan lowpoint DFS, ascending.
std::vector<NodeId> articulation_points(const Graph& g);

/// Maximum over sampled node pairs of dist(u,v,g) / dist(u,v,ref), the
/// paper's network-stretch metric. Pairs are BFS'd from `sources` (every
/// node if empty); only pairs alive in *both* graphs and connected in `ref`
/// count. Pairs disconnected in g while connected in ref yield +infinity.
/// The exact reference for spectral::ProbeEngine's sampled stretch probe.
double stretch_vs(const Graph& g, const Graph& ref, const std::vector<NodeId>& sources = {});

}  // namespace xheal::graph
