#include <gtest/gtest.h>

#include <deque>
#include <limits>
#include <set>
#include <vector>

#include "core/cloud_registry.hpp"
#include "util/expects.hpp"
#include "workload/generators.hpp"

namespace {

using namespace xheal::core;
using xheal::graph::ColorId;
using xheal::graph::Graph;
using xheal::graph::NodeId;
using xheal::util::ContractViolation;
using xheal::util::Rng;
namespace wl = xheal::workload;

std::vector<NodeId> ids(std::size_t n) {
    std::vector<NodeId> out;
    for (std::size_t i = 0; i < n; ++i) out.push_back(static_cast<NodeId>(i));
    return out;
}

struct RegistryTest : ::testing::Test {
    Graph g;
    CloudRegistry reg{2};  // kappa = 4
    Rng rng{77};

    void add_nodes(std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) g.add_node();
    }
    std::vector<ColorId> primary_of(NodeId v) const {
        std::vector<ColorId> out;
        reg.primary_clouds_of(v, out);
        return out;
    }
};

TEST_F(RegistryTest, CreateCloudClaimsEdges) {
    add_nodes(4);
    std::size_t added = 0;
    ColorId c = reg.create_cloud(g, CloudKind::primary, ids(4), rng, &added);
    EXPECT_NE(c, xheal::graph::invalid_color);
    // 4 <= kappa+1: clique, 6 edges claimed.
    EXPECT_EQ(added, 6u);
    EXPECT_EQ(g.edge_count(), 6u);
    EXPECT_TRUE(g.has_color_claim(0, 1, c));
    reg.verify(g);
}

TEST_F(RegistryTest, RecolorExistingBlackEdge) {
    add_nodes(3);
    g.add_black_edge(0, 1);
    ColorId c = reg.create_cloud(g, CloudKind::primary, ids(3), rng);
    EXPECT_EQ(g.edge_count(), 3u);  // no duplicate created
    EXPECT_TRUE(g.claims(0, 1).black);
    EXPECT_TRUE(g.has_color_claim(0, 1, c));
    reg.verify(g);
}

TEST_F(RegistryTest, DestroyCloudRevertsSharedEdgesToBlack) {
    add_nodes(3);
    g.add_black_edge(0, 1);
    ColorId c = reg.create_cloud(g, CloudKind::primary, ids(3), rng);
    std::size_t removed = 0;
    reg.destroy_cloud(g, c, &removed);
    EXPECT_EQ(removed, 3u);
    EXPECT_TRUE(g.has_edge(0, 1));  // black claim survives
    EXPECT_FALSE(g.has_edge(1, 2));
    EXPECT_FALSE(reg.exists(c));
    EXPECT_FALSE(reg.in_any_cloud(0));
    reg.verify(g);
}

TEST_F(RegistryTest, MembershipQueries) {
    add_nodes(6);
    ColorId p1 = reg.create_cloud(g, CloudKind::primary, {0, 1, 2}, rng);
    ColorId p2 = reg.create_cloud(g, CloudKind::primary, {2, 3, 4}, rng);
    // One buffer for every query: each call clears it first.
    std::vector<ColorId> colors;
    reg.primary_clouds_of(2, colors);
    EXPECT_EQ(colors, (std::vector<ColorId>{p1, p2}));
    reg.primary_clouds_of(5, colors);
    EXPECT_EQ(colors, std::vector<ColorId>{});
    EXPECT_TRUE(reg.is_free(0));

    ColorId s = reg.create_cloud(g, CloudKind::secondary, {0, 3}, rng);
    EXPECT_EQ(reg.secondary_cloud_of(0), std::optional<ColorId>{s});
    EXPECT_FALSE(reg.is_free(0));
    EXPECT_TRUE(reg.is_free(2));
    std::vector<NodeId> free{9, 9, 9};
    reg.free_members_of(p1, free);
    EXPECT_EQ(free, (std::vector<NodeId>{1, 2}));
    reg.verify(g);
}

TEST_F(RegistryTest, SecondaryRequiresFreeMembers) {
    add_nodes(4);
    reg.create_cloud(g, CloudKind::secondary, {0, 1}, rng);
    EXPECT_THROW(reg.create_cloud(g, CloudKind::secondary, {1, 2}, rng),
                 ContractViolation);
}

TEST_F(RegistryTest, RemoveMemberKeepsCloudConsistent) {
    add_nodes(8);
    ColorId c = reg.create_cloud(g, CloudKind::primary, ids(8), rng);
    // Node 3 leaves (healer-driven, still in graph).
    NodeId survivor = reg.remove_member(g, c, 3, rng, /*deleted_from_graph=*/false);
    EXPECT_EQ(survivor, xheal::graph::invalid_node);
    EXPECT_FALSE(reg.find(c)->has_member(3));
    EXPECT_EQ(reg.find(c)->size(), 7u);
    // Node 3 has no leftover claims.
    EXPECT_EQ(g.degree(3), 0u);
    reg.verify(g);
}

TEST_F(RegistryTest, RemoveMemberAfterGraphDeletion) {
    add_nodes(6);
    ColorId c = reg.create_cloud(g, CloudKind::primary, ids(6), rng);
    g.remove_node(2);
    NodeId survivor = reg.remove_member(g, c, 2, rng, /*deleted_from_graph=*/true);
    EXPECT_EQ(survivor, xheal::graph::invalid_node);
    EXPECT_EQ(reg.find(c)->size(), 5u);
    reg.verify(g);
}

TEST_F(RegistryTest, DissolutionReturnsSurvivor) {
    add_nodes(2);
    ColorId c = reg.create_cloud(g, CloudKind::primary, {0, 1}, rng);
    NodeId survivor = reg.remove_member(g, c, 0, rng, /*deleted_from_graph=*/false);
    EXPECT_EQ(survivor, 1u);
    EXPECT_FALSE(reg.exists(c));
    EXPECT_FALSE(reg.in_any_cloud(1));
    EXPECT_FALSE(g.has_edge(0, 1));
    reg.verify(g);
}

TEST_F(RegistryTest, ThreeMemberCloudSurvivesOneLoss) {
    add_nodes(3);
    ColorId c = reg.create_cloud(g, CloudKind::primary, ids(3), rng);
    NodeId survivor = reg.remove_member(g, c, 1, rng, false);
    EXPECT_EQ(survivor, xheal::graph::invalid_node);
    EXPECT_TRUE(reg.exists(c));
    EXPECT_TRUE(g.has_color_claim(0, 2, c));
    reg.verify(g);
}

TEST_F(RegistryTest, InsertMemberGrowsCloud) {
    add_nodes(5);
    ColorId c = reg.create_cloud(g, CloudKind::primary, {0, 1, 2}, rng);
    reg.insert_member(g, c, 4, rng);
    EXPECT_TRUE(reg.find(c)->has_member(4));
    EXPECT_EQ(primary_of(4), std::vector<ColorId>{c});
    EXPECT_GE(g.degree(4), 1u);
    reg.verify(g);
}

TEST_F(RegistryTest, HalfLossTriggersRebuild) {
    add_nodes(20);
    ColorId c = reg.create_cloud(g, CloudKind::primary, ids(20), rng);
    std::size_t before = reg.find(c)->rebuild_count;
    for (NodeId v = 0; v < 11; ++v) {
        reg.remove_member(g, c, v, rng, false);
    }
    EXPECT_GT(reg.find(c)->rebuild_count, before);
    reg.verify(g);
}

TEST_F(RegistryTest, LeadershipMaintainedAcrossRemovals) {
    add_nodes(10);
    ColorId c = reg.create_cloud(g, CloudKind::primary, ids(10), rng);
    for (NodeId v = 0; v < 8; ++v) {
        reg.remove_member(g, c, v, rng, false);
        const Cloud* cloud = reg.find(c);
        ASSERT_NE(cloud, nullptr);
        EXPECT_TRUE(cloud->has_member(cloud->leader));
        if (cloud->size() >= 2) {
            EXPECT_TRUE(cloud->has_member(cloud->vice_leader));
            EXPECT_NE(cloud->leader, cloud->vice_leader);
        }
    }
    reg.verify(g);
}

TEST_F(RegistryTest, OverlappingCloudsShareEdgeClaims) {
    add_nodes(4);
    ColorId a = reg.create_cloud(g, CloudKind::primary, {0, 1, 2}, rng);
    ColorId b = reg.create_cloud(g, CloudKind::primary, {1, 2, 3}, rng);
    // Edge (1,2) carries both claims and is one physical edge.
    EXPECT_TRUE(g.has_color_claim(1, 2, a));
    EXPECT_TRUE(g.has_color_claim(1, 2, b));
    reg.destroy_cloud(g, a);
    EXPECT_TRUE(g.has_edge(1, 2));  // still claimed by b
    EXPECT_FALSE(g.has_edge(0, 1));
    reg.verify(g);
}

TEST_F(RegistryTest, BridgeAssocPurgedOnRemoval) {
    add_nodes(6);
    ColorId p = reg.create_cloud(g, CloudKind::primary, {0, 1, 2}, rng);
    ColorId s = reg.create_cloud(g, CloudKind::secondary, {0, 3, 4}, rng);
    reg.find(s)->set_bridge_assoc(0, p);
    reg.remove_member(g, s, 0, rng, false);
    EXPECT_FALSE(reg.find(s)->has_bridge_assoc(0));
    EXPECT_TRUE(reg.is_free(0));
    reg.verify(g);
}

// ----- the secondary slot: one secondary color per node -----

TEST_F(RegistryTest, SecondaryOnlyNodeIsInACloudButNotFree) {
    add_nodes(4);
    ColorId p = reg.create_cloud(g, CloudKind::primary, {0, 1, 2}, rng);
    ColorId s = reg.create_cloud(g, CloudKind::secondary, {0, 3}, rng);
    // 3's only cloud is the secondary.
    EXPECT_TRUE(reg.in_any_cloud(3));
    EXPECT_FALSE(reg.is_free(3));
    EXPECT_EQ(reg.secondary_cloud_of(3), std::optional<ColorId>{s});
    EXPECT_EQ(primary_of(3), std::vector<ColorId>{});
    // 0 is in both: its primary colors exclude the secondary.
    EXPECT_EQ(primary_of(0), std::vector<ColorId>{p});
    EXPECT_EQ(reg.secondary_cloud_of(0), std::optional<ColorId>{s});
    reg.verify(g);
}

TEST_F(RegistryTest, BridgeCannotJoinASecondSecondary) {
    add_nodes(5);
    ColorId s1 = reg.create_cloud(g, CloudKind::secondary, {0, 1}, rng);
    ColorId s2 = reg.create_cloud(g, CloudKind::secondary, {2, 3, 4}, rng);
    EXPECT_THROW(reg.insert_member(g, s2, 0, rng), ContractViolation);
    EXPECT_EQ(reg.secondary_cloud_of(0), std::optional<ColorId>{s1});
    EXPECT_FALSE(reg.find(s2)->has_member(0));
    reg.verify(g);
}

TEST_F(RegistryTest, DestroyAndRemoveClearTheSlot) {
    add_nodes(6);
    ColorId s1 = reg.create_cloud(g, CloudKind::secondary, {0, 1, 2}, rng);
    reg.remove_member(g, s1, 2, rng, /*deleted_from_graph=*/false);
    EXPECT_TRUE(reg.is_free(2));
    EXPECT_FALSE(reg.in_any_cloud(2));
    reg.destroy_cloud(g, s1);
    EXPECT_TRUE(reg.is_free(0));
    EXPECT_TRUE(reg.is_free(1));
    EXPECT_FALSE(reg.in_any_cloud(0));
    // A dissolving 2-cloud clears the survivor's slot too.
    ColorId s2 = reg.create_cloud(g, CloudKind::secondary, {3, 4}, rng);
    EXPECT_EQ(reg.remove_member(g, s2, 3, rng, /*deleted_from_graph=*/false), 4u);
    EXPECT_TRUE(reg.is_free(3));
    EXPECT_TRUE(reg.is_free(4));
    // Freed nodes may join a new secondary.
    ColorId s3 = reg.create_cloud(g, CloudKind::secondary, {0, 1, 2, 3, 4}, rng);
    EXPECT_EQ(reg.secondary_cloud_of(4), std::optional<ColorId>{s3});
    reg.verify(g);
}

TEST_F(RegistryTest, RemapCarriesTheSlotToTheNewId) {
    add_nodes(8);
    ColorId p = reg.create_cloud(g, CloudKind::primary, {2, 4, 6}, rng);
    ColorId s = reg.create_cloud(g, CloudKind::secondary, {5, 7}, rng);
    for (NodeId v : {0, 1, 3}) g.remove_node(v);
    std::vector<NodeId> old_to_new;
    g.compact(old_to_new);  // 2->0, 4->1, 5->2, 6->3, 7->4
    reg.remap_ids(old_to_new, g.node_count());
    EXPECT_EQ(reg.secondary_cloud_of(2), std::optional<ColorId>{s});
    EXPECT_EQ(reg.secondary_cloud_of(4), std::optional<ColorId>{s});
    EXPECT_EQ(primary_of(2), std::vector<ColorId>{});
    for (NodeId v : {0, 1, 3}) {
        EXPECT_TRUE(reg.is_free(v));
        EXPECT_EQ(primary_of(v), std::vector<ColorId>{p});
    }
    EXPECT_TRUE(reg.is_free(5));
    EXPECT_TRUE(reg.is_free(7));
    reg.verify(g);
}

TEST_F(RegistryTest, RemapRejectsADeadIdHoldingASlot) {
    add_nodes(3);
    reg.create_cloud(g, CloudKind::secondary, {1, 2}, rng);
    std::vector<NodeId> old_to_new{0, xheal::graph::invalid_node, 1};
    EXPECT_THROW(reg.remap_ids(old_to_new, 2), ContractViolation);
}

TEST_F(RegistryTest, DirectoryWindowFollowsTheOldestLiveColor) {
    add_nodes(10);
    // One long-lived cloud pins the window's low end while more than 10k
    // clouds are created and destroyed around it (a FIFO of five, plus the
    // newest dropped every seventh round to leave holes mid-window).
    ColorId keeper = reg.create_cloud(g, CloudKind::primary, {0, 1}, rng);
    std::deque<ColorId> fifo;
    std::set<ColorId> live{keeper};
    std::vector<ColorId> destroyed;
    ColorId newest = keeper;
    auto check = [&](bool full) {
        ASSERT_EQ(reg.cloud_count(), live.size());
        // The window spans exactly the oldest live color to the newest issued.
        ASSERT_EQ(reg.directory_span(), live.empty() ? 0u : newest + 1 - *live.begin());
        if (!full) return;
        for (ColorId c : live) ASSERT_NE(reg.find(c), nullptr) << c;
        for (ColorId c : live) ASSERT_EQ(reg.find(c)->color, c);
        for (ColorId c : destroyed) ASSERT_EQ(reg.find(c), nullptr) << c;
        EXPECT_EQ(reg.find(xheal::graph::invalid_color), nullptr);
        EXPECT_EQ(reg.find(newest + 1), nullptr);
        EXPECT_EQ(reg.find(newest + 1000), nullptr);
        EXPECT_EQ(reg.find(std::numeric_limits<ColorId>::max()), nullptr);
        EXPECT_EQ(reg.colors(), std::vector<ColorId>(live.begin(), live.end()));
        reg.verify(g);
    };
    auto churn = [&](std::size_t rounds) {
        for (std::size_t i = 0; i < rounds; ++i) {
            NodeId a = 2 + static_cast<NodeId>(i % 4);
            newest = reg.create_cloud(g, CloudKind::primary, {a, a + 4}, rng);
            fifo.push_back(newest);
            live.insert(newest);
            auto drop = [&](ColorId c) {
                reg.destroy_cloud(g, c);
                live.erase(c);
                if (destroyed.size() < 64) destroyed.push_back(c);
            };
            if (i % 7 == 0) {
                drop(fifo.back());
                fifo.pop_back();
            }
            while (fifo.size() > 5) {
                drop(fifo.front());
                fifo.pop_front();
            }
            check(i % 1000 == 0);
        }
    };
    churn(10500);
    check(true);
    EXPECT_GE(reg.directory_span(), 10500u);  // the keeper holds the low end
    // Once the keeper dies the window's low end jumps to the FIFO.
    reg.destroy_cloud(g, keeper);
    live.erase(keeper);
    destroyed.push_back(keeper);
    check(true);
    EXPECT_LE(reg.directory_span(), 6u);
    churn(3000);
    check(true);
    EXPECT_LE(reg.directory_span(), 6u);
    while (!fifo.empty()) {
        reg.destroy_cloud(g, fifo.front());
        live.erase(fifo.front());
        fifo.pop_front();
    }
    check(true);
    EXPECT_EQ(g.edge_count(), 0u);
}

TEST_F(RegistryTest, DestroyAssertsEveryProjectedClaim) {
    add_nodes(4);
    ColorId c = reg.create_cloud(g, CloudKind::primary, ids(4), rng);
    // A claim dropped behind the registry's back breaks the invariant
    // claims == projection; releasing from the projection must notice.
    ASSERT_TRUE(g.remove_color_claim(1, 2, c));
    EXPECT_THROW(reg.destroy_cloud(g, c), ContractViolation);
}

}  // namespace
