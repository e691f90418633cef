// Graph traversal and structural queries used by metrics, invariant
// oracles, tests and benches. Every traversal runs over flat arrays indexed
// by NodeId (sized g.next_id(): ids index slots directly, tombstones and
// add_node_with_id gaps included) with a std::vector work queue — no
// hashing on any path.
#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace xheal::graph {

/// Distance entry of a node bfs_distances() did not reach (dead, gap, or
/// in another component).
inline constexpr std::size_t unreached = std::numeric_limits<std::size_t>::max();

/// BFS hop distances from `src`, indexed by NodeId and sized g.next_id():
/// src reads 0, every node outside src's component reads `unreached`.
std::vector<std::size_t> bfs_distances(const Graph& g, NodeId src);

/// Shortest-path length between u and v; nullopt if disconnected.
std::optional<std::size_t> distance(const Graph& g, NodeId u, NodeId v);

/// True iff the graph is connected (the empty graph counts as connected).
bool is_connected(const Graph& g);

/// Connected components, each sorted ascending; components sorted by their
/// smallest member.
std::vector<std::vector<NodeId>> connected_components(const Graph& g);

/// Exact diameter via BFS from every node. O(n * m); small graphs only.
/// Returns nullopt for disconnected or empty graphs.
std::optional<std::size_t> diameter_exact(const Graph& g);

/// Articulation points (cut vertices) via Tarjan lowpoint DFS, ascending.
std::vector<NodeId> articulation_points(const Graph& g);

/// Number of edges crossing the cut (S, V - S). `s` is sorted ascending
/// without repeats; its nodes must exist in g.
std::size_t cut_size(const Graph& g, std::span<const NodeId> s);

/// Maximum over sampled node pairs of dist(u,v,g) / dist(u,v,ref), the
/// paper's network-stretch metric. Pairs are BFS'd from `sources` (every
/// node if empty); only pairs alive in *both* graphs and connected in `ref`
/// count. Pairs disconnected in g while connected in ref yield +infinity.
/// The exact reference for spectral::ProbeEngine's sampled stretch probe.
double stretch_vs(const Graph& g, const Graph& ref, const std::vector<NodeId>& sources = {});

}  // namespace xheal::graph
