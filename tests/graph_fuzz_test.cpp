// Model-based fuzz test for the multi-claim Graph: a long random sequence
// of operations executed against both the real Graph and a trivially
// correct reference model (map of edge -> claim set), cross-checked after
// every step. Catches mirror/bookkeeping drift the unit tests might miss.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace {

using namespace xheal::graph;
using xheal::util::Rng;

struct ReferenceModel {
    std::set<NodeId> nodes;
    // key: normalized pair; value: (black?, colors)
    std::map<std::pair<NodeId, NodeId>, std::pair<bool, std::set<ColorId>>> edges;

    static std::pair<NodeId, NodeId> key(NodeId u, NodeId v) {
        return {std::min(u, v), std::max(u, v)};
    }

    void add_node(NodeId v) { nodes.insert(v); }

    void remove_node(NodeId v) {
        nodes.erase(v);
        for (auto it = edges.begin(); it != edges.end();) {
            if (it->first.first == v || it->first.second == v) {
                it = edges.erase(it);
            } else {
                ++it;
            }
        }
    }

    void add_black(NodeId u, NodeId v) { edges[key(u, v)].first = true; }

    void add_color(NodeId u, NodeId v, ColorId c) { edges[key(u, v)].second.insert(c); }

    void remove_color(NodeId u, NodeId v, ColorId c) {
        auto it = edges.find(key(u, v));
        if (it == edges.end()) return;
        it->second.second.erase(c);
        if (!it->second.first && it->second.second.empty()) edges.erase(it);
    }

    void remove_black(NodeId u, NodeId v) {
        auto it = edges.find(key(u, v));
        if (it == edges.end()) return;
        it->second.first = false;
        if (it->second.second.empty()) edges.erase(it);
    }
};

void cross_check(const Graph& g, const ReferenceModel& model) {
    ASSERT_EQ(g.node_count(), model.nodes.size());
    ASSERT_EQ(g.edge_count(), model.edges.size());
    for (NodeId v : model.nodes) ASSERT_TRUE(g.has_node(v));
    for (const auto& [pair, claims] : model.edges) {
        ASSERT_TRUE(g.has_edge(pair.first, pair.second));
        const auto& actual = g.claims(pair.first, pair.second);
        ASSERT_EQ(actual.black, claims.first);
        ASSERT_EQ(actual.colors.size(), claims.second.size());
        for (ColorId c : claims.second) ASSERT_TRUE(actual.has_color(c));
    }
    // Degrees agree.
    for (NodeId v : model.nodes) {
        std::size_t expected = 0;
        for (const auto& [pair, _] : model.edges) {
            if (pair.first == v || pair.second == v) ++expected;
        }
        ASSERT_EQ(g.degree(v), expected);
    }
}

TEST(GraphFuzz, RandomOperationSequenceMatchesModel) {
    for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
        Rng rng(seed);
        Graph g;
        ReferenceModel model;

        // Seed nodes.
        for (int i = 0; i < 8; ++i) model.add_node(g.add_node());

        auto random_node = [&]() -> NodeId {
            // Draw a position over the live view, then walk to it: same
            // distribution as indexing the old materialized list.
            auto view = g.nodes();
            std::size_t at = rng.index(view.size());
            auto it = view.begin();
            std::advance(it, static_cast<std::ptrdiff_t>(at));
            return *it;
        };

        for (int step = 0; step < 1200; ++step) {
            double roll = rng.uniform01();
            if (roll < 0.10) {
                model.add_node(g.add_node());
            } else if (roll < 0.16 && g.node_count() > 3) {
                NodeId v = random_node();
                g.remove_node(v);
                model.remove_node(v);
            } else if (roll < 0.40 && g.node_count() >= 2) {
                NodeId u = random_node(), v = random_node();
                if (u != v) {
                    g.add_black_edge(u, v);
                    model.add_black(u, v);
                }
            } else if (roll < 0.65 && g.node_count() >= 2) {
                NodeId u = random_node(), v = random_node();
                ColorId c = static_cast<ColorId>(1 + rng.index(5));
                if (u != v) {
                    g.add_color_claim(u, v, c);
                    model.add_color(u, v, c);
                }
            } else if (roll < 0.85 && g.node_count() >= 2) {
                NodeId u = random_node(), v = random_node();
                ColorId c = static_cast<ColorId>(1 + rng.index(5));
                if (u != v) {
                    g.remove_color_claim(u, v, c);
                    model.remove_color(u, v, c);
                }
            } else if (g.node_count() >= 2) {
                NodeId u = random_node(), v = random_node();
                if (u != v) {
                    g.remove_black_claim(u, v);
                    model.remove_black(u, v);
                }
            }
            if (step % 50 == 0) cross_check(g, model);
        }
        cross_check(g, model);
    }
}

}  // namespace
