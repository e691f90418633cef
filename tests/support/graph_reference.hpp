// Whole-graph reference queries for the tests: connected components, exact
// diameter and cut size. The library never calls them; each is built on
// the graph layer's one BFS (graph::bfs_distances) or its rows.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace xheal::graph {

/// Connected components, each sorted ascending; components sorted by their
/// smallest member.
std::vector<std::vector<NodeId>> connected_components(const Graph& g);

/// Exact diameter via BFS from every node. O(n * m); small graphs only.
/// Returns nullopt for disconnected or empty graphs.
std::optional<std::size_t> diameter_exact(const Graph& g);

/// Number of edges crossing the cut (S, V - S). `s` is sorted ascending
/// without repeats; its nodes must exist in g.
std::size_t cut_size(const Graph& g, std::span<const NodeId> s);

}  // namespace xheal::graph
