#include <gtest/gtest.h>

#include "core/invariants.hpp"
#include "core/session.hpp"
#include "core/xheal_healer.hpp"
#include "graph/algorithms.hpp"
#include "spectral/expansion.hpp"
#include "workload/generators.hpp"

namespace {

using namespace xheal::core;
using xheal::graph::ColorId;
using xheal::graph::Graph;
using xheal::graph::NodeId;
namespace wl = xheal::workload;

std::unique_ptr<XhealHealer> make_healer(std::size_t d = 4, std::uint64_t seed = 42) {
    return std::make_unique<XhealHealer>(XhealConfig{d, seed});
}

TEST(XhealCase1, StarCenterBecomesCliqueWhenSmall) {
    // 4 neighbors <= kappa+1 = 9: the primary cloud is a clique (paper
    // Algorithm 3.2).
    Graph g = wl::make_star(4);
    XhealHealer healer;
    auto report = healer.on_delete(g, 0);
    EXPECT_FALSE(g.has_node(0));
    EXPECT_EQ(g.node_count(), 4u);
    EXPECT_EQ(g.edge_count(), 6u);  // K4
    for (NodeId u = 1; u <= 4; ++u)
        for (NodeId v = u + 1; v <= 4; ++v) EXPECT_TRUE(g.is_colored_edge(u, v));
    EXPECT_EQ(report.edges_added, 6u);
    EXPECT_EQ(report.clouds_touched, 1u);
    EXPECT_EQ(report.combines, 0u);
    healer.check_consistency(g);
}

TEST(XhealCase1, StarCenterBecomesExpanderWhenLarge) {
    Graph g = wl::make_star(30);
    auto healer = make_healer(2);  // kappa = 4
    healer->on_delete(g, 0);
    EXPECT_TRUE(xheal::graph::is_connected(g));
    for (NodeId v : g.nodes()) {
        EXPECT_GE(g.degree(v), 2u);
        EXPECT_LE(g.degree(v), 4u);  // kappa-regular expander, not a clique
    }
    EXPECT_GT(xheal::spectral::edge_expansion_estimate(g), 0.5);
    healer->check_consistency(g);
}

TEST(XhealCase1, EventLogRecordsCreatePrimary) {
    Graph g = wl::make_star(5);
    XhealHealer healer;
    healer.on_delete(g, 0);
    const auto& events = healer.last_events();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, HealEvent::Kind::create_primary);
    EXPECT_EQ(events[0].members.size(), 5u);
}

TEST(XhealCase1, DegreeOneDeletionJustDrops) {
    Graph g = wl::make_path(3);
    XhealHealer healer;
    auto report = healer.on_delete(g, 2);  // leaf
    EXPECT_EQ(report.edges_added, 0u);
    EXPECT_TRUE(g.has_edge(0, 1));
    EXPECT_TRUE(xheal::graph::is_connected(g));
    healer.check_consistency(g);
}

TEST(XhealCase1, IsolatedNodeDeletion) {
    Graph g;
    g.add_node();
    g.add_node();
    g.add_black_edge(0, 1);
    g.add_node();  // isolated node 2
    XhealHealer healer;
    auto report = healer.on_delete(g, 2);
    EXPECT_EQ(report.edges_added, 0u);
    EXPECT_EQ(g.node_count(), 2u);
}

TEST(XhealCase21, SingleCloudLosesMemberNoSecondary) {
    Graph g = wl::make_star(4);
    XhealHealer healer;
    healer.on_delete(g, 0);  // cloud {1,2,3,4}
    healer.on_delete(g, 1);  // member of exactly one cloud, no black nbrs
    EXPECT_TRUE(xheal::graph::is_connected(g));
    // No secondary cloud should exist: a single unit needs no connector.
    const auto& reg = healer.registry();
    for (ColorId c : reg.colors()) {
        EXPECT_EQ(reg.find(c)->kind, CloudKind::primary);
    }
    healer.check_consistency(g);
}

/// Builds the two-primary-clouds-plus-black-neighbor scenario:
///   c1 (id 0) center of star over {x, a1, a2}
///   c2 (id 1) center of star over {x, b1, b2}
///   plain black edge x - y.
/// Deleting c1 then c2 yields primary clouds P1 = {x,a1,a2}, P2 = {x,b1,b2};
/// x is in both; y is a pure black neighbor of x.
struct TwoCloudFixture : ::testing::Test {
    Graph g;
    NodeId c1, c2, x, a1, a2, b1, b2, y;
    std::unique_ptr<XhealHealer> healer = make_healer(4, 7);

    void SetUp() override {
        c1 = g.add_node();
        c2 = g.add_node();
        x = g.add_node();
        a1 = g.add_node();
        a2 = g.add_node();
        b1 = g.add_node();
        b2 = g.add_node();
        y = g.add_node();
        for (NodeId v : {x, a1, a2}) g.add_black_edge(c1, v);
        for (NodeId v : {x, b1, b2}) g.add_black_edge(c2, v);
        g.add_black_edge(x, y);
        healer->on_delete(g, c1);
        healer->on_delete(g, c2);
    }
};

TEST_F(TwoCloudFixture, SetupProducedTwoPrimaryClouds) {
    const auto& reg = healer->registry();
    std::vector<ColorId> clouds_of_x;
    reg.primary_clouds_of(x, clouds_of_x);
    EXPECT_EQ(clouds_of_x.size(), 2u);
    EXPECT_TRUE(reg.is_free(x));
    EXPECT_FALSE(reg.in_any_cloud(y));
    healer->check_consistency(g);
    EXPECT_TRUE(xheal::graph::is_connected(g));
}

TEST_F(TwoCloudFixture, DeletingSharedMemberBuildsSecondary) {
    auto report = healer->on_delete(g, x);
    EXPECT_TRUE(xheal::graph::is_connected(g));
    healer->check_consistency(g);

    // A secondary cloud now connects P1, P2 and singleton y.
    const auto& reg = healer->registry();
    std::size_t secondaries = 0;
    for (ColorId c : reg.colors()) {
        const Cloud* cloud = reg.find(c);
        if (cloud->kind != CloudKind::secondary) continue;
        ++secondaries;
        EXPECT_EQ(cloud->size(), 3u);  // one bridge per unit
        EXPECT_TRUE(cloud->has_member(y));
    }
    EXPECT_EQ(secondaries, 1u);
    EXPECT_EQ(report.combines, 0u);
    // y is now a bridge: not free.
    EXPECT_FALSE(reg.is_free(y));
}

TEST_F(TwoCloudFixture, BridgeDeletionFixesSecondary) {
    healer->on_delete(g, x);
    const auto& reg = healer->registry();
    // Find a bridge associated with a primary cloud (not y).
    NodeId bridge = xheal::graph::invalid_node;
    for (NodeId v : g.nodes()) {
        if (v != y && !reg.is_free(v)) bridge = v;
    }
    ASSERT_NE(bridge, xheal::graph::invalid_node);

    healer->on_delete(g, bridge);  // Case 2.2
    EXPECT_TRUE(xheal::graph::is_connected(g));
    healer->check_consistency(g);
}

TEST_F(TwoCloudFixture, RepeatedDeletionsKeepConnectivity) {
    // Grind the fixture down to 2 nodes; connectivity and registry
    // consistency must hold after every step.
    while (g.node_count() > 2) {
        NodeId victim = g.nodes().front();
        healer->on_delete(g, victim);
        EXPECT_TRUE(xheal::graph::is_connected(g));
        healer->check_consistency(g);
    }
}

TEST(XhealDegree, BoundHoldsUnderHubAttack) {
    xheal::util::Rng rng(5);
    Graph initial = wl::make_erdos_renyi(40, 0.15, rng);
    HealingSession session(initial, make_healer(2, 11));
    auto& healer = dynamic_cast<XhealHealer&>(session.healer());
    for (int step = 0; step < 30; ++step) {
        // Hub attack: delete the max-degree node.
        NodeId worst = xheal::graph::invalid_node;
        std::size_t best = 0;
        for (NodeId v : session.current().nodes()) {
            if (session.current().degree(v) >= best) {
                best = session.current().degree(v);
                worst = v;
            }
        }
        session.delete_node(worst);
        check_degree_bound(session.current(), session.reference(), healer.kappa());
        EXPECT_TRUE(xheal::graph::is_connected(session.current()));
    }
}

TEST(XhealExpansion, StarCollapseKeepsConstantExpansion) {
    // The paper's motivating example: deleting the star center must not
    // collapse expansion (tree baselines drop to O(1/n)).
    Graph g = wl::make_star(64);
    auto healer = make_healer(3, 3);
    healer->on_delete(g, 0);
    EXPECT_GE(xheal::spectral::edge_expansion_estimate(g), 1.0);
}

TEST(XhealDeterminism, SameSeedSameResult) {
    auto run = [](std::uint64_t seed) {
        Graph g = wl::make_star(20);
        XhealHealer healer(XhealConfig{3, seed});
        healer.on_delete(g, 0);
        healer.on_delete(g, 5);
        healer.on_delete(g, 10);
        std::vector<std::pair<NodeId, NodeId>> edges;
        g.for_each_edge([&](NodeId u, NodeId v, const xheal::graph::EdgeClaims&) {
            edges.emplace_back(u, v);
        });
        return edges;
    };
    EXPECT_EQ(run(1234), run(1234));
    EXPECT_NE(run(1234), run(4321));
}

}  // namespace
