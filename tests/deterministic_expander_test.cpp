#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "spectral/expansion.hpp"
#include "spectral/laplacian.hpp"
#include "support/deterministic.hpp"

namespace {

using namespace xheal::expander;
using xheal::graph::NodeId;

TEST(Margulis, ShapeAndDegrees) {
    for (std::size_t m : {2u, 3u, 5u, 8u}) {
        auto g = make_margulis_expander(m);
        EXPECT_EQ(g.node_count(), m * m);
        for (NodeId v : g.nodes()) EXPECT_LE(g.degree(v), 8u);
        EXPECT_TRUE(xheal::graph::is_connected(g));
    }
}

TEST(Margulis, ConstantSpectralGapAcrossSizes) {
    // The Gabber-Galil construction has a size-independent spectral gap;
    // check lambda2 stays above a fixed constant as m grows.
    for (std::size_t m : {4u, 6u, 8u, 12u}) {
        auto g = make_margulis_expander(m);
        EXPECT_GT(xheal::spectral::lambda2(g), 0.07) << "m=" << m;
    }
}

TEST(Margulis, ExpansionIsConstant) {
    auto small = make_margulis_expander(4);   // 16 nodes, exact
    EXPECT_GT(xheal::spectral::edge_expansion_exact(small), 1.0);
    auto large = make_margulis_expander(12);  // 144 nodes, sweep estimate
    EXPECT_GT(xheal::spectral::edge_expansion_estimate(large), 0.8);
}

TEST(Margulis, Deterministic) {
    auto a = make_margulis_expander(5);
    auto b = make_margulis_expander(5);
    EXPECT_EQ(a.edge_count(), b.edge_count());
    a.for_each_edge([&](NodeId u, NodeId v, const xheal::graph::EdgeClaims&) {
        EXPECT_TRUE(b.has_edge(u, v));
    });
}

TEST(DeBruijn, ShapeAndConnectivity) {
    for (std::size_t n : {2u, 3u, 7u, 16u, 33u, 100u}) {
        auto g = make_debruijn_graph(n);
        EXPECT_EQ(g.node_count(), n);
        EXPECT_TRUE(xheal::graph::is_connected(g)) << "n=" << n;
        for (NodeId v : g.nodes()) EXPECT_LE(g.degree(v), 7u);
    }
}

TEST(DeBruijn, ReasonableExpansionAtModerateSize) {
    auto g = make_debruijn_graph(64);
    EXPECT_GT(xheal::spectral::edge_expansion_estimate(g), 0.5);
    EXPECT_GT(xheal::spectral::lambda2(g), 0.05);
}

TEST(DeBruijn, ExpansionDoesNotCollapseWithSize) {
    // Quasi-expander shape: lambda2 at n=256 within a small factor of
    // lambda2 at n=32 (no 1/n collapse).
    double l32 = xheal::spectral::lambda2(make_debruijn_graph(32));
    double l256 = xheal::spectral::lambda2(make_debruijn_graph(256));
    EXPECT_GT(l256, l32 / 6.0);
}

}  // namespace
