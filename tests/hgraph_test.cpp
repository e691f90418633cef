#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "expander/hgraph.hpp"
#include "graph/algorithms.hpp"
#include "spectral/expansion.hpp"
#include "util/expects.hpp"

namespace {

using namespace xheal::expander;
using xheal::graph::Graph;
using xheal::graph::NodeId;
using xheal::util::ContractViolation;
using xheal::util::Rng;

std::vector<NodeId> ids(std::size_t n, NodeId base = 0) {
    std::vector<NodeId> out;
    for (std::size_t i = 0; i < n; ++i) out.push_back(base + static_cast<NodeId>(i));
    return out;
}

Graph project(const HGraph& h) {
    Graph g;
    for (NodeId v : h.members_sorted()) g.add_node_with_id(v);
    for (const auto& [u, v] : h.edges()) g.add_black_edge(u, v);
    return g;
}

TEST(HGraph, ConstructionIsValidAndCovering) {
    Rng rng(1);
    HGraph h(ids(12), 3, rng);
    EXPECT_EQ(h.size(), 12u);
    EXPECT_EQ(h.cycle_count(), 3u);
    EXPECT_EQ(h.kappa(), 6u);
    h.validate();
    EXPECT_EQ(h.members_sorted(), ids(12));
}

TEST(HGraph, ProjectedDegreeAtMostKappa) {
    Rng rng(2);
    HGraph h(ids(30), 4, rng);
    auto g = project(h);
    for (NodeId v : g.nodes()) {
        EXPECT_LE(g.degree(v), h.kappa());
        EXPECT_GE(g.degree(v), 2u);  // at least the two neighbors of one cycle
    }
}

TEST(HGraph, ProjectionIsConnected) {
    Rng rng(3);
    for (int trial = 0; trial < 5; ++trial) {
        HGraph h(ids(40), 2, rng);
        EXPECT_TRUE(xheal::graph::is_connected(project(h)));  // one Hamilton cycle suffices
    }
}

TEST(HGraph, InsertMaintainsCycles) {
    Rng rng(4);
    HGraph h(ids(5), 3, rng);
    for (NodeId v = 5; v < 25; ++v) {
        h.insert(v, rng);
        h.validate();
    }
    EXPECT_EQ(h.size(), 25u);
}

TEST(HGraph, DeleteMaintainsCycles) {
    Rng rng(5);
    HGraph h(ids(20), 3, rng);
    for (NodeId v = 0; v < 17; ++v) {
        h.remove(v);
        h.validate();
    }
    EXPECT_EQ(h.size(), 3u);
    EXPECT_EQ(h.members_sorted(), (std::vector<NodeId>{17, 18, 19}));
}

TEST(HGraph, SuccessorPredecessorMirror) {
    Rng rng(6);
    HGraph h(ids(9), 2, rng);
    for (std::size_t c = 0; c < h.cycle_count(); ++c) {
        for (NodeId v : h.members_sorted()) {
            EXPECT_EQ(h.predecessor(h.successor(v, c), c), v);
        }
    }
}

TEST(HGraph, DegenerateSizes) {
    Rng rng(7);
    HGraph h(ids(3), 2, rng);
    h.remove(0);
    EXPECT_EQ(h.size(), 2u);
    h.validate();
    // Two nodes: each cycle is u <-> v; projection is the single edge.
    EXPECT_EQ(h.edges().size(), 1u);
    h.remove(1);
    EXPECT_EQ(h.size(), 1u);
    EXPECT_TRUE(h.edges().empty());  // self-loop dropped
    EXPECT_THROW(h.remove(2), ContractViolation);
}

// Reference projection from the public cycle walk: every successor pair,
// self-loops dropped, sorted and deduplicated.
std::vector<std::pair<NodeId, NodeId>> successor_pairs(const HGraph& h) {
    std::vector<std::pair<NodeId, NodeId>> want;
    for (NodeId u : h.members_sorted()) {
        for (std::size_t c = 0; c < h.cycle_count(); ++c) {
            NodeId v = h.successor(u, c);
            if (v != u) want.push_back({std::min(u, v), std::max(u, v)});
        }
    }
    std::sort(want.begin(), want.end());
    want.erase(std::unique(want.begin(), want.end()), want.end());
    return want;
}

void expect_pairs_are_projection(const HGraph& h, const std::string& where) {
    std::vector<std::pair<NodeId, NodeId>> seen;
    h.for_each_pair([&](NodeId u, NodeId v) {
        EXPECT_LT(u, v) << where;
        EXPECT_TRUE(seen.empty() || seen.back() < std::pair(u, v)) << where;  // once each
        seen.push_back({u, v});
    });
    const auto want = successor_pairs(h);
    EXPECT_EQ(seen, want) << where;
    EXPECT_EQ(h.edges(), want) << where;
}

TEST(HGraph, ForEachPairVisitsExactlyTheProjection) {
    Rng rng(12);
    // Sizes 1 and 2 have degenerate cycles (self-loops, u <-> v twice);
    // small sizes repeat pairs across cycles. d = 9 gives a member up to 18
    // distinct higher neighbors, more than one pass of the walk's buffer.
    for (std::size_t d : {1u, 2u, 3u, 4u, 9u}) {
        for (std::size_t n : {1u, 2u, 3u, 4u, 10u, 40u}) {
            const std::string where = "d=" + std::to_string(d) + " n=" + std::to_string(n);
            HGraph h(ids(n, 5), d, rng);
            expect_pairs_are_projection(h, where);
            // Splices reuse freed slots, so slot order stops following id
            // order; a rebuild relinks every cycle in place.
            for (NodeId v = 100; v < 106; ++v) h.insert(v, rng);
            expect_pairs_are_projection(h, where + " after inserts");
            for (NodeId v : {NodeId{5}, NodeId{101}, NodeId{103}})
                if (h.contains(v) && h.size() > 1) h.remove(v);
            expect_pairs_are_projection(h, where + " after removes");
            h.insert(200, rng);
            expect_pairs_are_projection(h, where + " after a reinsert");
            h.rebuild(rng);
            expect_pairs_are_projection(h, where + " after rebuild");
        }
    }
}

TEST(HGraph, InsertRejectsDuplicates) {
    Rng rng(8);
    HGraph h(ids(4), 2, rng);
    EXPECT_THROW(h.insert(2, rng), ContractViolation);
}

TEST(HGraph, DeterministicGivenSeed) {
    Rng rng_a(99), rng_b(99);
    HGraph a(ids(15), 3, rng_a);
    HGraph b(ids(15), 3, rng_b);
    EXPECT_EQ(a.edges(), b.edges());
}

TEST(HGraph, ChurnedGraphStaysExpanding) {
    // Theorem 3 smoke test: after an insert/delete churn the graph should
    // still look like a random H-graph (positive expansion, connected).
    Rng rng(10);
    HGraph h(ids(16), 3, rng);
    NodeId next = 16;
    for (int step = 0; step < 60; ++step) {
        if (step % 2 == 0) {
            h.insert(next++, rng);
        } else {
            auto members = h.members_sorted();
            h.remove(members[rng.index(members.size())]);
        }
        h.validate();
    }
    auto g = project(h);
    EXPECT_TRUE(xheal::graph::is_connected(g));
    EXPECT_GT(xheal::spectral::edge_expansion_estimate(g), 0.5);
}

TEST(HGraph, FreshRandomHGraphHasOmegaDExpansion) {
    // Theorem 4 smoke test at small scale (exact expansion, n=14, d=3):
    // edge expansion should be at least ~d/2.
    Rng rng(11);
    for (int trial = 0; trial < 3; ++trial) {
        HGraph h(ids(14), 3, rng);
        auto g = project(h);
        EXPECT_GE(xheal::spectral::edge_expansion_exact(g), 1.5);
    }
}

}  // namespace
