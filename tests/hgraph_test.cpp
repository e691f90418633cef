#include <gtest/gtest.h>

#include <algorithm>
#include <set>

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

TEST(HGraph, ProjectionEqualsAcceptsExactlyTheProjection) {
    Rng rng(12);
    // Sizes 1 and 2 have degenerate cycles (self-loops, u <-> v twice);
    // d = 3 over 10 members repeats pairs across cycles.
    for (std::size_t n : {1u, 2u, 3u, 10u, 40u}) {
        HGraph h(ids(n, 5), 3, rng);
        auto pairs = h.edges();
        EXPECT_TRUE(h.projection_equals(pairs)) << n;
        if (pairs.empty()) {
            EXPECT_FALSE(h.projection_equals({{5, 6}})) << n;
            continue;
        }
        auto missing = pairs;
        missing.pop_back();
        EXPECT_FALSE(h.projection_equals(missing)) << n;
        auto repeated = pairs;
        repeated.push_back(pairs.back());
        EXPECT_FALSE(h.projection_equals(repeated)) << n;
        auto flipped = pairs;
        std::swap(flipped.front().first, flipped.front().second);
        EXPECT_FALSE(h.projection_equals(flipped)) << n;
        auto foreign = pairs;
        foreign.push_back({static_cast<NodeId>(n + 5), static_cast<NodeId>(n + 6)});
        EXPECT_FALSE(h.projection_equals(foreign)) << n;
    }
    // Same size, one pair swapped for a non-adjacent member pair.
    HGraph h(ids(40), 2, rng);
    auto pairs = h.edges();
    for (NodeId b = 1; b < 40; ++b)
        if (!h.has_adjacency(0, b)) {
            pairs.front() = {0, b};
            std::sort(pairs.begin(), pairs.end());
            EXPECT_FALSE(h.projection_equals(pairs));
            break;
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
