#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "util/expects.hpp"

namespace {

using namespace xheal::graph;
using xheal::util::ContractViolation;

TEST(Graph, AddNodesAllocatesMonotonicIds) {
    Graph g;
    EXPECT_EQ(g.add_node(), 0u);
    EXPECT_EQ(g.add_node(), 1u);
    g.remove_node(1);
    // Ids are never reused.
    EXPECT_EQ(g.add_node(), 2u);
    EXPECT_EQ(g.node_count(), 2u);
}

TEST(Graph, AddNodeWithIdAdvancesCounter) {
    Graph g;
    g.add_node_with_id(10);
    EXPECT_EQ(g.add_node(), 11u);
    EXPECT_THROW(g.add_node_with_id(10), ContractViolation);
}

TEST(Graph, BlackEdgeBasics) {
    Graph g;
    g.add_node();
    g.add_node();
    g.add_black_edge(0, 1);
    EXPECT_TRUE(g.has_edge(0, 1));
    EXPECT_TRUE(g.has_edge(1, 0));
    EXPECT_TRUE(g.has_black_claim(0, 1));
    EXPECT_FALSE(g.is_colored_edge(0, 1));
    EXPECT_EQ(g.edge_count(), 1u);
    EXPECT_EQ(g.degree(0), 1u);
    // Idempotent.
    g.add_black_edge(1, 0);
    EXPECT_EQ(g.edge_count(), 1u);
}

TEST(Graph, SelfLoopRejected) {
    Graph g;
    g.add_node();
    EXPECT_THROW(g.add_black_edge(0, 0), ContractViolation);
}

TEST(Graph, CsrConstructorBuildsBlackEdges) {
    // A triangle 0-1-2 plus the pendant edge 2-3.
    std::vector<std::size_t> offsets{0, 2, 4, 7, 8};
    std::vector<NodeId> targets{1, 2, 0, 2, 0, 1, 3, 2};
    Graph g(offsets, targets);
    EXPECT_EQ(g.node_count(), 4u);
    EXPECT_EQ(g.next_id(), 4u);
    EXPECT_EQ(g.edge_count(), 4u);
    EXPECT_EQ(g.max_degree(), 3u);
    EXPECT_EQ(g.min_degree(), 1u);
    EXPECT_TRUE(g.has_black_claim(2, 3));
    EXPECT_FALSE(g.is_colored_edge(0, 1));
    EXPECT_EQ(g.add_node(), 4u);  // the id space continues past the rows

    std::vector<NodeId> unsorted{2, 1, 0, 2, 0, 1, 3, 2};
    EXPECT_THROW(Graph(offsets, unsorted), ContractViolation);
    std::vector<NodeId> self_loop{0, 2, 0, 2, 0, 1, 3, 2};
    EXPECT_THROW(Graph(offsets, self_loop), ContractViolation);
    std::vector<NodeId> out_of_range{1, 2, 0, 2, 0, 1, 4, 2};
    EXPECT_THROW(Graph(offsets, out_of_range), ContractViolation);
    std::vector<std::size_t> short_offsets{0, 2, 4, 7};
    EXPECT_THROW(Graph(short_offsets, targets), ContractViolation);
}

TEST(Graph, ColorClaimCreatesEdge) {
    Graph g;
    g.add_node();
    g.add_node();
    g.add_color_claim(0, 1, 5);
    EXPECT_TRUE(g.has_edge(0, 1));
    EXPECT_TRUE(g.is_colored_edge(0, 1));
    EXPECT_FALSE(g.has_black_claim(0, 1));
    EXPECT_TRUE(g.has_color_claim(0, 1, 5));
    EXPECT_FALSE(g.has_color_claim(0, 1, 6));
}

TEST(Graph, RecoloringKeepsOneEdge) {
    // The paper's "recolor instead of multi-edge": a black edge gaining a
    // color claim stays a single edge with both claims.
    Graph g;
    g.add_node();
    g.add_node();
    g.add_black_edge(0, 1);
    g.add_color_claim(0, 1, 3);
    EXPECT_EQ(g.edge_count(), 1u);
    EXPECT_TRUE(g.claims(0, 1).black);
    EXPECT_TRUE(g.claims(0, 1).has_color(3));
    EXPECT_TRUE(g.is_colored_edge(0, 1));
}

TEST(Graph, DroppingColorRevertsToBlack) {
    Graph g;
    g.add_node();
    g.add_node();
    g.add_black_edge(0, 1);
    g.add_color_claim(0, 1, 3);
    EXPECT_TRUE(g.remove_color_claim(0, 1, 3));
    EXPECT_TRUE(g.has_edge(0, 1));
    EXPECT_FALSE(g.is_colored_edge(0, 1));
    EXPECT_TRUE(g.has_black_claim(0, 1));
}

TEST(Graph, EdgeDisappearsWhenLastClaimRemoved) {
    Graph g;
    g.add_node();
    g.add_node();
    g.add_color_claim(0, 1, 3);
    g.add_color_claim(0, 1, 9);
    EXPECT_TRUE(g.remove_color_claim(0, 1, 3));
    EXPECT_TRUE(g.has_edge(0, 1));
    EXPECT_TRUE(g.remove_color_claim(0, 1, 9));
    EXPECT_FALSE(g.has_edge(0, 1));
    EXPECT_EQ(g.edge_count(), 0u);
}

TEST(Graph, RemoveMissingClaimReturnsFalse) {
    Graph g;
    g.add_node();
    g.add_node();
    EXPECT_FALSE(g.remove_color_claim(0, 1, 3));
    g.add_black_edge(0, 1);
    EXPECT_FALSE(g.remove_color_claim(0, 1, 3));
    EXPECT_TRUE(g.has_edge(0, 1));
}

TEST(Graph, RemoveBlackClaim) {
    Graph g;
    g.add_node();
    g.add_node();
    g.add_black_edge(0, 1);
    g.add_color_claim(0, 1, 2);
    EXPECT_TRUE(g.remove_black_claim(0, 1));
    EXPECT_TRUE(g.has_edge(0, 1));  // color claim keeps it alive
    EXPECT_TRUE(g.remove_color_claim(0, 1, 2));
    EXPECT_FALSE(g.has_edge(0, 1));
}

TEST(Graph, RemoveNodeDropsIncidentEdges) {
    Graph g;
    for (int i = 0; i < 4; ++i) g.add_node();
    g.add_black_edge(0, 1);
    g.add_black_edge(0, 2);
    g.add_color_claim(0, 3, 7);
    g.add_black_edge(1, 2);
    g.remove_node(0);
    EXPECT_FALSE(g.has_node(0));
    EXPECT_EQ(g.edge_count(), 1u);
    EXPECT_TRUE(g.has_edge(1, 2));
    EXPECT_EQ(g.degree(3), 0u);
}

TEST(Graph, NeighborsSortedAndMirrored) {
    Graph g;
    for (int i = 0; i < 5; ++i) g.add_node();
    g.add_black_edge(2, 4);
    g.add_black_edge(2, 0);
    g.add_black_edge(2, 3);
    auto view = g.neighbors(2);
    EXPECT_EQ(std::vector<NodeId>(view.begin(), view.end()),
              (std::vector<NodeId>{0, 3, 4}));
    for (NodeId u : g.neighbors(2)) {
        EXPECT_TRUE(g.claims(u, 2).black);
    }
}

TEST(Graph, ForEachEdgeVisitsOncePerEdge) {
    Graph g;
    for (int i = 0; i < 4; ++i) g.add_node();
    g.add_black_edge(0, 1);
    g.add_black_edge(1, 2);
    g.add_black_edge(2, 3);
    std::size_t visits = 0;
    g.for_each_edge([&](NodeId u, NodeId v, const EdgeClaims& c) {
        EXPECT_LT(u, v);
        EXPECT_TRUE(c.black);
        ++visits;
    });
    EXPECT_EQ(visits, 3u);
}

TEST(Graph, VolumeAndDegreeExtremes) {
    Graph g;
    for (int i = 0; i < 4; ++i) g.add_node();
    g.add_black_edge(0, 1);
    g.add_black_edge(0, 2);
    g.add_black_edge(0, 3);
    EXPECT_EQ(g.max_degree(), 3u);
    EXPECT_EQ(g.min_degree(), 1u);
    std::vector<NodeId> s{0, 1};
    EXPECT_EQ(g.volume(s), 4u);
}

TEST(Graph, CopySemanticsIndependent) {
    Graph g;
    g.add_node();
    g.add_node();
    g.add_black_edge(0, 1);
    Graph copy = g;
    copy.remove_node(0);
    EXPECT_TRUE(g.has_node(0));
    EXPECT_TRUE(g.has_edge(0, 1));
    EXPECT_FALSE(copy.has_node(0));
}

TEST(Graph, ClaimsRequireExistingNodes) {
    Graph g;
    g.add_node();
    EXPECT_THROW(g.add_black_edge(0, 99), ContractViolation);
    EXPECT_THROW(g.degree(99), ContractViolation);
}

TEST(Graph, InvalidColorRejected) {
    Graph g;
    g.add_node();
    g.add_node();
    EXPECT_THROW(g.add_color_claim(0, 1, invalid_color), ContractViolation);
}

// ----- ColorSet spill (more than two colors on one edge) -----

std::vector<ColorId> colors_of(const Graph& g, NodeId u, NodeId v) {
    const ColorSet& set = g.claims(u, v).colors;
    return {set.begin(), set.end()};
}

TEST(Graph, ColorSetSpillsPastTwoAndShrinksBack) {
    Graph g;
    g.add_node();
    g.add_node();
    g.add_black_edge(0, 1);
    // Grow one edge to nine colors in a scrambled order, then erase back to
    // one: two fill the inline slots, the third spills (capacity 4), the
    // fifth and ninth regrow (8, 16). Order, contains, the mirror and the
    // black flag beside the set hold at every step.
    const ColorId grow[] = {50, 10, 70, 30, 80, 20, 60, 40, 90};
    std::vector<ColorId> want;
    for (ColorId c : grow) {
        g.add_color_claim(0, 1, c);
        want.insert(std::lower_bound(want.begin(), want.end(), c), c);
        EXPECT_EQ(colors_of(g, 0, 1), want);
        EXPECT_EQ(colors_of(g, 1, 0), want);
        EXPECT_TRUE(g.has_black_claim(0, 1));
        for (ColorId probe = 10; probe <= 90; probe += 5)
            EXPECT_EQ(g.has_color_claim(0, 1, probe),
                      std::binary_search(want.begin(), want.end(), probe))
                << probe;
    }
    const ColorId shrink[] = {40, 90, 80, 10, 60, 20, 70, 30};
    for (ColorId c : shrink) {
        EXPECT_TRUE(g.remove_color_claim(0, 1, c));
        want.erase(std::find(want.begin(), want.end(), c));
        EXPECT_EQ(colors_of(g, 0, 1), want);
        EXPECT_EQ(colors_of(g, 1, 0), want);
        EXPECT_FALSE(g.has_color_claim(0, 1, c));
        EXPECT_TRUE(g.has_black_claim(0, 1));
    }
    EXPECT_EQ(colors_of(g, 0, 1), std::vector<ColorId>{50});
    // The spilled set keeps working after shrinking: regrow past two.
    for (ColorId c : {1u, 2u}) g.add_color_claim(0, 1, c);
    EXPECT_EQ(colors_of(g, 0, 1), (std::vector<ColorId>{1, 2, 50}));
    // Dropping black leaves the colors; dropping every color then deletes.
    EXPECT_TRUE(g.remove_black_claim(0, 1));
    EXPECT_EQ(colors_of(g, 1, 0), (std::vector<ColorId>{1, 2, 50}));
    EXPECT_FALSE(g.has_black_claim(1, 0));
    for (ColorId c : {2u, 50u, 1u}) g.remove_color_claim(0, 1, c);
    EXPECT_FALSE(g.has_edge(0, 1));
}

TEST(Graph, CopyOfSpilledClaimsIsDeep) {
    Graph g;
    for (int i = 0; i < 3; ++i) g.add_node();
    for (ColorId c = 1; c <= 3; ++c) g.add_color_claim(0, 1, c);  // just spilled
    g.add_color_claim(1, 2, 9);
    g.add_color_claim(1, 2, 8);  // inline, full
    Graph copy = g;
    copy.remove_color_claim(0, 1, 2);
    copy.add_color_claim(0, 1, 7);
    for (ColorId c = 10; c <= 13; ++c) copy.add_color_claim(1, 2, c);
    EXPECT_EQ(colors_of(g, 0, 1), (std::vector<ColorId>{1, 2, 3}));
    EXPECT_EQ(colors_of(g, 1, 2), (std::vector<ColorId>{8, 9}));
    EXPECT_EQ(colors_of(copy, 0, 1), (std::vector<ColorId>{1, 3, 7}));
    EXPECT_EQ(colors_of(copy, 1, 2), (std::vector<ColorId>{8, 9, 10, 11, 12, 13}));
    // Copy-assignment over a graph that already holds spilled sets.
    copy = g;
    EXPECT_EQ(colors_of(copy, 0, 1), colors_of(g, 0, 1));
    EXPECT_EQ(colors_of(copy, 2, 1), (std::vector<ColorId>{8, 9}));
    g.remove_node(1);
    EXPECT_EQ(colors_of(copy, 1, 0), (std::vector<ColorId>{1, 2, 3}));
}

TEST(Graph, ColorSetMoveAndSelfAssignment) {
    for (std::size_t n : {2u, 3u, 5u}) {  // inline and full, just spilled, regrown
        ColorSet a;
        std::vector<ColorId> want;
        for (ColorId c = 1; c <= n; ++c) {
            a.insert(c * 10);
            want.push_back(c * 10);
        }
        ColorSet b(std::move(a));
        EXPECT_TRUE(a.empty()) << n;
        EXPECT_EQ(a.begin(), a.end());
        EXPECT_FALSE(a.contains(10));
        EXPECT_TRUE(a.insert(7));  // a moved-from set is a valid empty set
        EXPECT_EQ(a, std::vector<ColorId>{7});
        EXPECT_EQ(b, want);

        ColorSet c;
        c.insert(99);
        c = std::move(b);
        EXPECT_TRUE(b.empty());
        EXPECT_EQ(c, want);

        ColorSet& alias = c;
        c = alias;  // self-copy
        EXPECT_EQ(c, want);
        c = std::move(alias);  // self-move
        EXPECT_EQ(c, want);

        ColorSet d;
        for (ColorId x = 100; x < 108; ++x) d.insert(x);
        d = c;  // copy over a spilled set
        EXPECT_EQ(d, want);
        EXPECT_EQ(c, want);
    }
}

TEST(Graph, BlackFlagSharesTheColorSetsSpareByte) {
    EXPECT_EQ(sizeof(EdgeClaims), 12u);
    EXPECT_EQ(sizeof(NeighborEntry), 16u);
    // Every set operation leaves the flag beside it alone, inline or spilled.
    for (bool black : {false, true}) {
        EdgeClaims claims;
        claims.black = black;
        for (ColorId c = 1; c <= 5; ++c) {
            claims.colors.insert(c);
            EXPECT_EQ(claims.black, black) << c;
        }
        EdgeClaims copy = claims;
        EXPECT_EQ(copy.black, black);
        copy.colors = ColorSet();
        EXPECT_EQ(copy.black, black);
        copy.colors = claims.colors;
        EXPECT_EQ(copy.black, black);
        EdgeClaims moved = std::move(copy);
        EXPECT_EQ(moved.black, black);
        EXPECT_EQ(moved.colors, claims.colors);
        for (ColorId c = 5; c >= 1; --c) {
            moved.colors.erase(c);
            EXPECT_EQ(moved.black, black) << c;
        }
        EXPECT_EQ(moved.empty(), !black);
    }
}

}  // namespace
