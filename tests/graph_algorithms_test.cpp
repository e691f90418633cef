#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "graph/algorithms.hpp"
#include "support/graph_reference.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"

namespace {

using namespace xheal::graph;
namespace wl = xheal::workload;

TEST(Bfs, PathDistances) {
    auto g = wl::make_path(6);
    auto d = bfs_distances(g, 0);
    ASSERT_EQ(d.size(), 6u);
    for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(d[v], v);
}

TEST(Bfs, GridDistanceIsManhattan) {
    auto g = wl::make_grid(4, 5);
    auto d = bfs_distances(g, 0);
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t c = 0; c < 5; ++c)
            EXPECT_EQ(d[r * 5 + c], r + c);
}

TEST(Connectivity, DetectsComponents) {
    Graph g;
    for (int i = 0; i < 5; ++i) g.add_node();
    g.add_black_edge(0, 1);
    g.add_black_edge(2, 3);
    EXPECT_FALSE(is_connected(g));
    auto comps = connected_components(g);
    ASSERT_EQ(comps.size(), 3u);
    EXPECT_EQ(comps[0], (std::vector<NodeId>{0, 1}));
    EXPECT_EQ(comps[1], (std::vector<NodeId>{2, 3}));
    EXPECT_EQ(comps[2], (std::vector<NodeId>{4}));
}

TEST(Connectivity, EmptyAndSingletonAreConnected) {
    Graph g;
    EXPECT_TRUE(is_connected(g));
    g.add_node();
    EXPECT_TRUE(is_connected(g));
}

TEST(Diameter, KnownValues) {
    EXPECT_EQ(diameter_exact(wl::make_path(7)), std::optional<std::size_t>{6});
    EXPECT_EQ(diameter_exact(wl::make_cycle(8)), std::optional<std::size_t>{4});
    EXPECT_EQ(diameter_exact(wl::make_complete(5)), std::optional<std::size_t>{1});
    EXPECT_EQ(diameter_exact(wl::make_star(6)), std::optional<std::size_t>{2});
    EXPECT_EQ(diameter_exact(wl::make_petersen()), std::optional<std::size_t>{2});
}

TEST(Diameter, DisconnectedIsNullopt) {
    Graph g;
    g.add_node();
    g.add_node();
    EXPECT_EQ(diameter_exact(g), std::nullopt);
}

TEST(Articulation, PathInternalNodesAreCuts) {
    auto g = wl::make_path(5);
    EXPECT_EQ(articulation_points(g), (std::vector<NodeId>{1, 2, 3}));
}

TEST(Articulation, CycleHasNone) {
    EXPECT_TRUE(articulation_points(wl::make_cycle(6)).empty());
}

TEST(Articulation, StarCenterIsTheOnlyCut) {
    auto g = wl::make_star(5);
    EXPECT_EQ(articulation_points(g), (std::vector<NodeId>{0}));
}

TEST(Articulation, DumbbellBridgeEndpoints) {
    auto g = wl::make_dumbbell(4);  // bridge between node 0 and node 4
    EXPECT_EQ(articulation_points(g), (std::vector<NodeId>{0, 4}));
}

TEST(CutSize, CountsCrossingEdges) {
    auto g = wl::make_cycle(6);
    std::vector<NodeId> s{0, 1, 2};
    EXPECT_EQ(cut_size(g, s), 2u);
    std::vector<NodeId> alternating{0, 2, 4};
    EXPECT_EQ(cut_size(g, alternating), 6u);
}

TEST(Stretch, IdenticalGraphsHaveStretchOne) {
    auto g = wl::make_grid(3, 3);
    EXPECT_DOUBLE_EQ(stretch_vs(g, g), 1.0);
}

TEST(Stretch, DetourMeasured) {
    // ref: cycle C6; g: path (cycle with edge (0,5) removed). The pair
    // (0,5) has ref distance 1 but g distance 5.
    auto ref = wl::make_cycle(6);
    auto g = wl::make_cycle(6);
    g.remove_black_claim(0, 5);
    EXPECT_DOUBLE_EQ(stretch_vs(g, ref), 5.0);
}

TEST(Stretch, DisconnectionIsInfinite) {
    auto ref = wl::make_path(3);
    Graph g = ref;
    g.remove_black_claim(0, 1);
    EXPECT_TRUE(std::isinf(stretch_vs(g, ref)));
}

TEST(Stretch, DeletedNodesExcludedAsEndpoints) {
    // ref keeps node 1; g deleted it but bridged 0-2. Stretch counts only
    // alive pairs: dist_g(0,2)=1 vs dist_ref(0,2)=2 -> ratio 0.5 -> max
    // with remaining pairs stays finite (no infinite from deleted node 1).
    auto ref = wl::make_path(3);
    Graph g = ref;
    g.remove_node(1);
    g.add_black_edge(0, 2);
    double s = stretch_vs(g, ref);
    EXPECT_LE(s, 1.0);
}

// ----- slot-state coverage: the flat arrays are indexed by NodeId, so
// tombstones, add_node_with_id gaps and compaction must not change any
// answer relative to the same graph rebuilt with dense ids.

/// Copy of `g` with ids renumbered through `to` (live ids only; ids absent
/// from g become tombstones when `to` maps them, so a mirrored pair can
/// share one renumbering).
Graph relabel(const Graph& g, const std::vector<NodeId>& universe,
              const std::vector<NodeId>& to) {
    Graph out;
    for (NodeId v : universe) out.add_node_with_id(to[v]);
    g.for_each_edge([&](NodeId u, NodeId v, const EdgeClaims&) {
        out.add_black_edge(to[u], to[v]);
    });
    for (NodeId v : universe)
        if (!g.has_node(v)) out.remove_node(to[v]);
    return out;
}

/// Dense rank of every live id of `g` (invalid_node elsewhere).
std::vector<NodeId> dense_ranks(const Graph& g) {
    std::vector<NodeId> to(g.next_id(), invalid_node);
    NodeId next = 0;
    for (NodeId v : g.nodes()) to[v] = next++;
    return to;
}

std::vector<NodeId> live(const Graph& g) {
    auto view = g.nodes();
    return {view.begin(), view.end()};
}

/// Reference G' with add_node_with_id gaps and a pendant path (cut
/// vertices), and the healed G: G' minus every fifth node (tombstones),
/// each deletion line-healed over its sorted neighbors, plus two isolated
/// late arrivals so G has several components.
void holey_pair(Graph& ref, Graph& g) {
    xheal::util::Rng rng(91);
    std::vector<NodeId> ids;
    for (NodeId i = 0; i < 48; ++i) ids.push_back(3 * i + i % 2);  // gaps
    for (NodeId v : ids) ref.add_node_with_id(v);
    for (std::size_t i = 0; i < 40; ++i) ref.add_black_edge(ids[i], ids[(i + 1) % 40]);
    for (int k = 0; k < 20; ++k) {
        NodeId u = ids[rng.index(40)], v = ids[rng.index(40)];
        if (u != v) ref.add_black_edge(u, v);
    }
    for (std::size_t i = 40; i < 48; ++i) ref.add_black_edge(ids[i - 1], ids[i]);  // tail
    g = ref;
    for (std::size_t i = 0; i < 40; i += 5) {
        NodeId v = ids[i];
        std::vector<NodeId> nbrs(g.neighbors(v).begin(), g.neighbors(v).end());
        g.remove_node(v);
        for (std::size_t j = 1; j < nbrs.size(); ++j) g.add_black_edge(nbrs[j - 1], nbrs[j]);
    }
    g.add_node_with_id(200);
    g.add_node_with_id(203);
}

void expect_same_structure(const Graph& g, const Graph& dense, const std::vector<NodeId>& to,
                           const char* label) {
    SCOPED_TRACE(label);
    ASSERT_EQ(g.node_count(), dense.node_count());
    for (NodeId s : g.nodes()) {
        auto d = bfs_distances(g, s);
        auto dd = bfs_distances(dense, to[s]);
        ASSERT_EQ(d.size(), g.next_id());
        for (NodeId v = 0; v < g.next_id(); ++v) {
            if (g.has_node(v))
                EXPECT_EQ(d[v], dd[to[v]]) << s << "->" << v;
            else
                EXPECT_EQ(d[v], unreached) << s << "->" << v;
        }
    }
    auto comps = connected_components(g);
    auto dense_comps = connected_components(dense);
    ASSERT_EQ(comps.size(), dense_comps.size());
    for (std::size_t c = 0; c < comps.size(); ++c) {
        std::vector<NodeId> mapped;
        for (NodeId v : comps[c]) mapped.push_back(to[v]);
        EXPECT_EQ(mapped, dense_comps[c]);
    }
    EXPECT_EQ(is_connected(g), is_connected(dense));
    std::vector<NodeId> cuts;
    for (NodeId v : articulation_points(g)) cuts.push_back(to[v]);
    EXPECT_EQ(cuts, articulation_points(dense));
    EXPECT_FALSE(cuts.empty());
}

TEST(SlotStates, HoleyGraphMatchesDenseRebuild) {
    Graph ref, g;
    holey_pair(ref, g);
    ASSERT_GT(g.next_id(), g.node_count());  // gaps and tombstones present
    auto to = dense_ranks(g);
    Graph dense = relabel(g, live(g), to);
    ASSERT_EQ(dense.next_id(), dense.node_count());
    expect_same_structure(g, dense, to, "tombstones + gaps");
    EXPECT_EQ(connected_components(g).size(), 3u);

    // compact() renumbers onto exactly the dense ranks.
    Graph compacted = g;
    std::vector<NodeId> old_to_new;
    compacted.compact(old_to_new);
    for (NodeId v : g.nodes()) EXPECT_EQ(old_to_new[v], to[v]);
    expect_same_structure(g, compacted, to, "compacted");
    expect_same_structure(compacted, dense, dense_ranks(compacted), "compacted vs dense");
}

TEST(SlotStates, StretchIgnoresIdLayout) {
    Graph ref, g;
    holey_pair(ref, g);
    g.remove_node(200);  // drop the isolated arrivals: stretch stays finite
    g.remove_node(203);
    g.remove_black_claim(4, 6);  // ring edge ids[1]-ids[2]: forces a detour
    auto to = dense_ranks(ref);
    Graph ref_dense = relabel(ref, live(ref), to);
    Graph g_dense = relabel(g, live(ref), to);  // G's deletions become tombstones
    double s = stretch_vs(g, ref);
    ASSERT_TRUE(std::isfinite(s));
    EXPECT_GT(s, 1.0);
    EXPECT_DOUBLE_EQ(s, stretch_vs(g_dense, ref_dense));
    std::vector<NodeId> sources = {live(g)[3], live(g)[17]};
    std::vector<NodeId> dense_sources = {to[sources[0]], to[sources[1]]};
    EXPECT_DOUBLE_EQ(stretch_vs(g, ref, sources), stretch_vs(g_dense, ref_dense, dense_sources));
}

}  // namespace
