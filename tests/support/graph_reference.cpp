#include "support/graph_reference.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>

#include "graph/algorithms.hpp"
#include "util/expects.hpp"

namespace xheal::graph {

std::vector<std::vector<NodeId>> connected_components(const Graph& g) {
    std::vector<std::vector<NodeId>> comps;
    std::vector<std::uint8_t> seen(g.next_id(), 0);
    // Ascending sweep: each BFS starts at its component's smallest id, so
    // the components come out sorted by smallest member.
    for (NodeId v : g.nodes()) {
        if (seen[v] != 0) continue;
        std::vector<std::size_t> dist = bfs_distances(g, v);
        std::vector<NodeId> comp;
        for (NodeId u = 0; u < dist.size(); ++u) {
            if (dist[u] == unreached) continue;
            comp.push_back(u);
            seen[u] = 1;
        }
        comps.push_back(std::move(comp));
    }
    return comps;
}

std::optional<std::size_t> diameter_exact(const Graph& g) {
    if (g.node_count() == 0) return std::nullopt;
    std::size_t diameter = 0;
    for (NodeId v : g.nodes()) {
        std::vector<std::size_t> dist = bfs_distances(g, v);
        for (NodeId u : g.nodes()) {
            if (dist[u] == unreached) return std::nullopt;
            diameter = std::max(diameter, dist[u]);
        }
    }
    return diameter;
}

std::size_t cut_size(const Graph& g, std::span<const NodeId> s) {
    XHEAL_EXPECTS(std::adjacent_find(s.begin(), s.end(), std::greater_equal<>()) == s.end());
    std::size_t crossing = 0;
    for (NodeId u : s) {
        XHEAL_EXPECTS(g.has_node(u));
        for (NodeId v : g.neighbors(u)) {
            if (!std::binary_search(s.begin(), s.end(), v)) ++crossing;
        }
    }
    return crossing;
}

}  // namespace xheal::graph
