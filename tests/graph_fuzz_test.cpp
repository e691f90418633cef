// Model-based fuzz test for the multi-claim Graph: a long random sequence
// of operations executed against both the real Graph and a trivially
// correct reference model (map of edge -> claim set), cross-checked after
// every step. Catches mirror/bookkeeping drift the unit tests might miss.
#include <gtest/gtest.h>

#include <algorithm>
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

    /// Graph::compact's ascending dense renumbering.
    void remap(const std::vector<NodeId>& old_to_new) {
        std::set<NodeId> renamed;
        for (NodeId v : nodes) renamed.insert(old_to_new[v]);
        nodes = std::move(renamed);
        decltype(edges) moved;
        for (auto& [pair, claims] : edges)
            moved[{old_to_new[pair.first], old_to_new[pair.second]}] = std::move(claims);
        edges = std::move(moved);
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
        ASSERT_TRUE(std::equal(actual.colors.begin(), actual.colors.end(),
                               claims.second.begin(), claims.second.end()));
        const auto& mirror = g.claims(pair.second, pair.first);
        ASSERT_EQ(mirror.black, claims.first);
        ASSERT_EQ(mirror.colors, actual.colors);
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

// Draw a position over the live view, then walk to it: same distribution
// as indexing a materialized node list.
NodeId random_live_node(const Graph& g, Rng& rng) {
    auto view = g.nodes();
    std::size_t at = rng.index(view.size());
    auto it = view.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(at));
    return *it;
}

TEST(GraphFuzz, RandomOperationSequenceMatchesModel) {
    for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
        Rng rng(seed);
        Graph g;
        ReferenceModel model;

        // Seed nodes.
        for (int i = 0; i < 8; ++i) model.add_node(g.add_node());

        auto random_node = [&] { return random_live_node(g, rng); };

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

// A handful of nodes and colors 1-8 stack several colors on most edges, so
// color sets cross the two-color inline limit again and again, also under
// graph copy and copy-assignment, remove_node and compact. A frozen copy is
// checked against its own model while the original keeps changing, so a
// copy that shared a spilled array would show.
TEST(GraphFuzz, DenseColorsCrossTheSpillBoundary) {
    for (std::uint64_t seed : {3ull, 11ull, 29ull}) {
        Rng rng(seed);
        Graph g;
        ReferenceModel model;
        for (int i = 0; i < 5; ++i) model.add_node(g.add_node());
        Graph frozen = g;
        ReferenceModel frozen_model = model;
        std::vector<NodeId> old_to_new;
        std::size_t spills = 0;  // color inserts that left an edge three colors

        auto random_node = [&] { return random_live_node(g, rng); };

        for (int step = 0; step < 3000; ++step) {
            const double roll = rng.uniform01();
            const NodeId u = random_node(), v = random_node();
            const ColorId c = static_cast<ColorId>(1 + rng.index(8));
            if (roll < 0.03 && g.node_count() > 3) {
                g.remove_node(u);
                model.remove_node(u);
            } else if (roll < 0.06 && g.node_count() < 7) {
                model.add_node(g.add_node());
            } else if (roll < 0.08) {
                g.compact(old_to_new);
                model.remap(old_to_new);
            } else if (roll < 0.10) {
                cross_check(frozen, frozen_model);
                if (rng.uniform01() < 0.5) {
                    frozen = g;
                } else {
                    Graph fresh(g);
                    frozen = std::move(fresh);
                }
                frozen_model = model;
            } else if (u == v) {
                continue;
            } else if (roll < 0.55) {
                g.add_color_claim(u, v, c);
                model.add_color(u, v, c);
                if (model.edges[ReferenceModel::key(u, v)].second.size() == 3) ++spills;
            } else if (roll < 0.90) {
                g.remove_color_claim(u, v, c);
                model.remove_color(u, v, c);
            } else if (roll < 0.95) {
                g.add_black_edge(u, v);
                model.add_black(u, v);
            } else {
                g.remove_black_claim(u, v);
                model.remove_black(u, v);
            }
            cross_check(g, model);
        }
        cross_check(frozen, frozen_model);
        EXPECT_GT(spills, 100u) << seed;
    }
}

}  // namespace
