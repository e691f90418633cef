#include "workload/generators.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <utility>

#include "expander/hgraph.hpp"
#include "graph/algorithms.hpp"
#include "util/expects.hpp"

namespace xheal::workload {

using graph::Graph;
using graph::NodeId;

namespace {

Graph with_nodes(std::size_t n) {
    Graph g;
    for (std::size_t i = 0; i < n; ++i) g.add_node();
    return g;
}

}  // namespace

Graph make_path(std::size_t n) {
    XHEAL_EXPECTS(n >= 1);
    Graph g = with_nodes(n);
    for (std::size_t i = 0; i + 1 < n; ++i)
        g.add_black_edge(static_cast<NodeId>(i), static_cast<NodeId>(i + 1));
    return g;
}

Graph make_cycle(std::size_t n) {
    XHEAL_EXPECTS(n >= 3);
    Graph g = make_path(n);
    g.add_black_edge(static_cast<NodeId>(n - 1), 0);
    return g;
}

Graph make_star(std::size_t leaves) {
    XHEAL_EXPECTS(leaves >= 1);
    Graph g = with_nodes(leaves + 1);
    for (std::size_t i = 1; i <= leaves; ++i) g.add_black_edge(0, static_cast<NodeId>(i));
    return g;
}

Graph make_complete(std::size_t n) {
    XHEAL_EXPECTS(n >= 1);
    Graph g = with_nodes(n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i + 1; j < n; ++j)
            g.add_black_edge(static_cast<NodeId>(i), static_cast<NodeId>(j));
    return g;
}

Graph make_grid(std::size_t rows, std::size_t cols) {
    XHEAL_EXPECTS(rows >= 1 && cols >= 1);
    Graph g = with_nodes(rows * cols);
    auto id = [cols](std::size_t r, std::size_t c) {
        return static_cast<NodeId>(r * cols + c);
    };
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            if (c + 1 < cols) g.add_black_edge(id(r, c), id(r, c + 1));
            if (r + 1 < rows) g.add_black_edge(id(r, c), id(r + 1, c));
        }
    }
    return g;
}

Graph make_torus(std::size_t rows, std::size_t cols) {
    XHEAL_EXPECTS(rows >= 3 && cols >= 3);
    Graph g = with_nodes(rows * cols);
    auto id = [cols](std::size_t r, std::size_t c) {
        return static_cast<NodeId>(r * cols + c);
    };
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < cols; ++c) {
            g.add_black_edge(id(r, c), id(r, (c + 1) % cols));
            g.add_black_edge(id(r, c), id((r + 1) % rows, c));
        }
    }
    return g;
}

Graph make_hypercube(std::size_t dim) {
    XHEAL_EXPECTS(dim >= 1 && dim <= 20);
    std::size_t n = std::size_t{1} << dim;
    Graph g = with_nodes(n);
    for (std::size_t v = 0; v < n; ++v) {
        for (std::size_t b = 0; b < dim; ++b) {
            std::size_t u = v ^ (std::size_t{1} << b);
            if (u > v) g.add_black_edge(static_cast<NodeId>(v), static_cast<NodeId>(u));
        }
    }
    return g;
}

Graph make_binary_tree(std::size_t n) {
    XHEAL_EXPECTS(n >= 1);
    Graph g = with_nodes(n);
    for (std::size_t i = 1; i < n; ++i)
        g.add_black_edge(static_cast<NodeId>(i), static_cast<NodeId>((i - 1) / 2));
    return g;
}

Graph make_erdos_renyi(std::size_t n, double p, util::Rng& rng) {
    XHEAL_EXPECTS(n >= 2);
    XHEAL_EXPECTS(p > 0.0 && p <= 1.0);
    for (int attempt = 0; attempt < 200; ++attempt) {
        Graph g = with_nodes(n);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = i + 1; j < n; ++j)
                if (rng.chance(p))
                    g.add_black_edge(static_cast<NodeId>(i), static_cast<NodeId>(j));
        if (graph::is_connected(g)) return g;
    }
    throw std::runtime_error("make_erdos_renyi: no connected sample in 200 attempts");
}

Graph make_random_regular(std::size_t n, std::size_t d, util::Rng& rng) {
    XHEAL_EXPECTS(d >= 1 && d < n);
    XHEAL_EXPECTS((n * d) % 2 == 0);

    // Configuration model: pair up d stubs per node, then repair conflicts
    // (self-loops / duplicate pairs) by random edge switches.
    std::vector<NodeId> stubs;
    stubs.reserve(n * d);
    for (std::size_t v = 0; v < n; ++v)
        for (std::size_t k = 0; k < d; ++k) stubs.push_back(static_cast<NodeId>(v));

    for (int attempt = 0; attempt < 400; ++attempt) {
        rng.shuffle(stubs);
        std::vector<std::pair<NodeId, NodeId>> pairs;
        pairs.reserve(stubs.size() / 2);
        for (std::size_t i = 0; i < stubs.size(); i += 2)
            pairs.emplace_back(stubs[i], stubs[i + 1]);

        auto normalized = [](NodeId a, NodeId b) {
            return std::make_pair(std::min(a, b), std::max(a, b));
        };

        // Collect conflicts, then try to switch each against random
        // partners. Bounded effort; resample on failure.
        std::set<std::pair<NodeId, NodeId>> seen;
        std::vector<std::size_t> bad;
        for (std::size_t i = 0; i < pairs.size(); ++i) {
            if (pairs[i].first == pairs[i].second ||
                !seen.insert(normalized(pairs[i].first, pairs[i].second)).second) {
                bad.push_back(i);
            }
        }
        bool ok = true;
        for (std::size_t bi : bad) {
            bool fixed = false;
            for (int tries = 0; tries < 200 && !fixed; ++tries) {
                std::size_t j = rng.index(pairs.size());
                if (j == bi) continue;
                // Switch: (a,b),(c,e) -> (a,c),(b,e).
                auto [a, b] = pairs[bi];
                auto [c, e] = pairs[j];
                if (a == c || b == e || a == e || b == c) continue;
                auto p1 = normalized(a, c);
                auto p2 = normalized(b, e);
                auto old_j = normalized(c, e);
                if (seen.contains(p1) || seen.contains(p2) || p1 == p2) continue;
                if (!seen.contains(old_j)) continue;  // partner itself is bad; skip
                seen.erase(old_j);
                seen.insert(p1);
                seen.insert(p2);
                pairs[bi] = {a, c};
                pairs[j] = {b, e};
                fixed = true;
            }
            if (!fixed) {
                ok = false;
                break;
            }
        }
        if (!ok) continue;

        Graph g = with_nodes(n);
        for (const auto& [a, b] : pairs) g.add_black_edge(a, b);
        // Require connectivity for a usable test substrate (random regular
        // graphs with d >= 3 are connected w.h.p.).
        if (d >= 3 && !graph::is_connected(g)) continue;
        return g;
    }
    throw std::runtime_error("make_random_regular: failed to build a simple graph");
}

Graph make_barabasi_albert(std::size_t n, std::size_t m, util::Rng& rng) {
    XHEAL_EXPECTS(m >= 1);
    XHEAL_EXPECTS(n > m);
    Graph g = make_complete(m + 1);
    std::vector<NodeId> endpoint_pool;  // each node appears once per degree
    for (NodeId v : g.nodes())
        for (std::size_t k = 0; k < g.degree(v); ++k) endpoint_pool.push_back(v);

    for (std::size_t v = m + 1; v < n; ++v) {
        std::set<NodeId> targets;
        while (targets.size() < m) {
            targets.insert(endpoint_pool[rng.index(endpoint_pool.size())]);
        }
        NodeId id = g.add_node();
        for (NodeId t : targets) {
            g.add_black_edge(id, t);
            endpoint_pool.push_back(id);
            endpoint_pool.push_back(t);
        }
    }
    return g;
}

Graph make_dumbbell(std::size_t clique) {
    XHEAL_EXPECTS(clique >= 2);
    Graph g = with_nodes(2 * clique);
    for (std::size_t i = 0; i < clique; ++i)
        for (std::size_t j = i + 1; j < clique; ++j) {
            g.add_black_edge(static_cast<NodeId>(i), static_cast<NodeId>(j));
            g.add_black_edge(static_cast<NodeId>(clique + i), static_cast<NodeId>(clique + j));
        }
    g.add_black_edge(0, static_cast<NodeId>(clique));
    return g;
}

Graph make_petersen() {
    Graph g = with_nodes(10);
    // Outer 5-cycle, inner pentagram, spokes.
    for (std::size_t i = 0; i < 5; ++i) {
        g.add_black_edge(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % 5));
        g.add_black_edge(static_cast<NodeId>(5 + i), static_cast<NodeId>(5 + (i + 2) % 5));
        g.add_black_edge(static_cast<NodeId>(i), static_cast<NodeId>(5 + i));
    }
    return g;
}

Graph make_hgraph_graph(std::size_t n, std::size_t d, util::Rng& rng) {
    XHEAL_EXPECTS(n >= 3);
    std::vector<NodeId> members;
    members.reserve(n);
    for (std::size_t i = 0; i < n; ++i) members.push_back(static_cast<NodeId>(i));
    expander::HGraph h(members, d, rng);
    // Counting sort of the projection into CSR: one pass counts degrees, a
    // second places each pair in both rows. Pairs come in ascending (u, v)
    // order, so row w first receives its lower neighbours, from the pairs
    // (u, w) in ascending u, then its higher ones, from the pairs (w, v) in
    // ascending v: every row lands sorted.
    std::vector<std::size_t> offsets(n + 1, 0);
    h.for_each_pair([&](NodeId u, NodeId v) {
        ++offsets[u + 1];
        ++offsets[v + 1];
    });
    for (std::size_t i = 0; i < n; ++i) offsets[i + 1] += offsets[i];
    std::vector<NodeId> targets(offsets[n]);
    std::vector<std::size_t> cursor(offsets.begin(), offsets.end() - 1);
    h.for_each_pair([&](NodeId u, NodeId v) {
        targets[cursor[u]++] = v;
        targets[cursor[v]++] = u;
    });
    return Graph(offsets, targets);
}

}  // namespace xheal::workload
