#include "support/deterministic.hpp"

#include <set>
#include <utility>
#include <vector>

#include "util/expects.hpp"

namespace xheal::expander {

using graph::Graph;
using graph::NodeId;

Graph make_margulis_expander(std::size_t m) {
    XHEAL_EXPECTS(m >= 2);
    Graph g;
    for (std::size_t i = 0; i < m * m; ++i) g.add_node();
    auto id = [m](std::size_t x, std::size_t y) {
        return static_cast<NodeId>(x * m + y);
    };
    // Gabber-Galil generator set: (x, y) -> (x, x+y), (x, x+y+1),
    // (x+y, y), (x+y+1, y); the inverses are covered by undirectedness.
    for (std::size_t x = 0; x < m; ++x) {
        for (std::size_t y = 0; y < m; ++y) {
            NodeId u = id(x, y);
            std::size_t targets[4][2] = {
                {x, (x + y) % m},
                {x, (x + y + 1) % m},
                {(x + y) % m, y},
                {(x + y + 1) % m, y},
            };
            for (const auto& t : targets) {
                NodeId v = id(t[0], t[1]);
                if (u != v) g.add_black_edge(u, v);
            }
        }
    }
    return g;
}

namespace {

/// The shuffle-exchange edge set over an arbitrary member list of size z:
/// position i connects to positions (2i) mod z, (2i+1) mod z and i+1 mod z.
std::vector<std::pair<NodeId, NodeId>> debruijn_edges_over(
    const std::vector<NodeId>& members) {
    XHEAL_EXPECTS(members.size() >= 2);
    std::size_t z = members.size();
    std::set<std::pair<NodeId, NodeId>> pairs;
    auto link = [&](std::size_t i, std::size_t j) {
        if (i == j) return;
        NodeId a = members[i];
        NodeId b = members[j];
        pairs.emplace(std::min(a, b), std::max(a, b));
    };
    for (std::size_t i = 0; i < z; ++i) {
        link(i, (2 * i) % z);
        link(i, (2 * i + 1) % z);
        link(i, (i + 1) % z);
    }
    return {pairs.begin(), pairs.end()};
}

}  // namespace

Graph make_debruijn_graph(std::size_t n) {
    XHEAL_EXPECTS(n >= 2);
    std::vector<NodeId> members;
    members.reserve(n);
    Graph g;
    for (std::size_t i = 0; i < n; ++i) members.push_back(g.add_node());
    for (const auto& [u, v] : debruijn_edges_over(members)) g.add_black_edge(u, v);
    return g;
}

}  // namespace xheal::expander
