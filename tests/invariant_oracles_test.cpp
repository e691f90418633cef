// Negative tests for the structural oracles: each test corrupts a healthy
// churned Xheal session in one specific way and asserts that the named
// oracle of InvariantSuite::check_structural fires and that the matching
// throwing check throws. Findings are matched on oracle name, never on
// message text (messages carry __FILE__:__LINE__).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "adversary/adversary.hpp"
#include "core/invariants.hpp"
#include "core/session.hpp"
#include "core/xheal_healer.hpp"
#include "support/session_check.hpp"
#include "workload/generators.hpp"

namespace {

using namespace xheal;
using namespace xheal::core;
using graph::ColorId;
using graph::Graph;
using graph::NodeId;

class InvariantOracles : public ::testing::Test {
protected:
    void SetUp() override {
        util::Rng rng(0x0dac1eULL);
        auto healer = std::make_unique<XhealHealer>(XhealConfig{2, 77});
        registry_ = &healer->registry();
        kappa_ = healer->kappa();
        session_ = std::make_unique<HealingSession>(
            workload::make_random_regular(64, 4, rng), std::move(healer));
        adversary::RandomDeletion deleter;
        adversary::RandomAttach inserter(3);
        for (std::size_t step = 0; step < 60; ++step) {
            if (rng.chance(0.6)) session_->delete_node(deleter.pick(*session_, rng));
            else session_->insert_node(inserter.pick_neighbors(*session_, rng));
        }
        ASSERT_GT(registry_->cloud_count(), 0u);
        ASSERT_TRUE(fired().empty()) << "the churned session must start clean";
        ASSERT_NO_THROW(check_session(*session_, kappa_));
    }

    /// The session owns a non-const Graph and hands out only const views;
    /// the tests corrupt it in place to see the oracles catch it.
    Graph& g() { return const_cast<Graph&>(session_->current()); }
    const Graph& ref() const { return session_->reference(); }

    /// Oracle names of every structural finding on the current session.
    std::vector<std::string> fired() const {
        std::vector<InvariantFinding> findings;
        InvariantSuite(kappa_).check_structural(*session_, findings);
        std::vector<std::string> names;
        for (const InvariantFinding& f : findings) names.push_back(f.oracle);
        return names;
    }

    void expect_fires(const std::string& oracle) const {
        std::vector<std::string> names = fired();
        EXPECT_NE(std::find(names.begin(), names.end(), oracle), names.end())
            << oracle << " did not fire";
        EXPECT_THROW(check_session(*session_, kappa_), util::ContractViolation);
    }

    /// The first live cloud.
    const Cloud& some_cloud() const { return *registry_->find(registry_->colors().front()); }

    /// The cloud's lowest claimed pair: the first of its topology projection.
    static std::pair<NodeId, NodeId> first_claim(const Cloud& cloud) {
        std::vector<std::pair<NodeId, NodeId>> pairs;
        cloud.topology.collect_edges(pairs);
        EXPECT_FALSE(pairs.empty());
        return pairs.front();
    }

    /// The first edge of g outside the cloud's topology. An existing edge,
    /// so claiming it moves no degree: only the claim set goes wrong.
    std::pair<NodeId, NodeId> edge_outside(const Cloud& cloud) {
        std::pair<NodeId, NodeId> out{graph::invalid_node, graph::invalid_node};
        g().for_each_edge([&](NodeId u, NodeId v, const graph::EdgeClaims&) {
            if (out.first == graph::invalid_node && !cloud.topology.has_edge(u, v))
                out = {u, v};
        });
        return out;
    }

    std::unique_ptr<HealingSession> session_;
    const CloudRegistry* registry_ = nullptr;
    std::size_t kappa_ = 0;
};

TEST_F(InvariantOracles, StrayClaimOfLiveColorOutsideItsTopologyFires) {
    const Cloud& cloud = some_cloud();
    auto [su, sv] = edge_outside(cloud);
    ASSERT_NE(su, graph::invalid_node);
    g().add_color_claim(su, sv, cloud.color);
    expect_fires("healer-consistency");
    EXPECT_THROW(registry_->verify(g()), util::ContractViolation);
}

TEST_F(InvariantOracles, ClaimOfAColorNoCloudOwnsFires) {
    std::vector<ColorId> colors = registry_->colors();
    ColorId orphan = colors.back() + 1000;
    ASSERT_FALSE(registry_->exists(orphan));
    NodeId u = g().nodes().front();
    g().add_color_claim(u, g().neighbors(u).front(), orphan);
    expect_fires("healer-consistency");
    EXPECT_THROW(registry_->verify(g()), util::ContractViolation);
}

TEST_F(InvariantOracles, RemovedCloudClaimFires) {
    const Cloud& cloud = some_cloud();
    auto [u, v] = first_claim(cloud);
    ASSERT_TRUE(g().remove_color_claim(u, v, cloud.color));
    expect_fires("healer-consistency");
    EXPECT_THROW(registry_->verify(g()), util::ContractViolation);
}

// Remove one claim and add a stray one: the claim totals still agree, so
// only the per-claim presence check of the cloud loop can see it.
TEST_F(InvariantOracles, MovedCloudClaimFires) {
    const Cloud& cloud = some_cloud();
    auto [u, v] = first_claim(cloud);
    auto [su, sv] = edge_outside(cloud);
    ASSERT_NE(su, graph::invalid_node);
    ASSERT_TRUE(g().remove_color_claim(u, v, cloud.color));
    g().add_color_claim(su, sv, cloud.color);
    expect_fires("healer-consistency");
    EXPECT_THROW(registry_->verify(g()), util::ContractViolation);
}

/// Drop the black claim of the first reference edge between survivors
/// whose healed copy is (colored) or is not (!colored) also claimed by a
/// cloud: the uncolored edge vanishes from g, the colored one stays with
/// its black claim gone.
void drop_reference_black_claim(Graph& g, const Graph& ref, bool colored) {
    NodeId su = graph::invalid_node, sv = graph::invalid_node;
    ref.for_each_edge([&](NodeId u, NodeId v, const graph::EdgeClaims&) {
        if (su == graph::invalid_node && g.has_node(u) && g.has_node(v) &&
            g.is_colored_edge(u, v) == colored) {
            su = u;
            sv = v;
        }
    });
    ASSERT_NE(su, graph::invalid_node);
    ASSERT_TRUE(g.remove_black_claim(su, sv));
    ASSERT_EQ(g.has_edge(su, sv), colored);
}

TEST_F(InvariantOracles, RemovedBlackClaimOfSurvivingReferenceEdgeFires) {
    drop_reference_black_claim(g(), ref(), false);
    expect_fires("reference-edges");
    EXPECT_THROW(check_reference_edges_present(g(), ref()), util::ContractViolation);
}

TEST_F(InvariantOracles, RemovedBlackClaimUnderACloudClaimFires) {
    drop_reference_black_claim(g(), ref(), true);
    expect_fires("reference-edges");
    EXPECT_THROW(check_reference_edges_present(g(), ref()), util::ContractViolation);
}

TEST_F(InvariantOracles, DegreePastLemma3BoundFires) {
    NodeId v = g().nodes().front();
    std::size_t bound = kappa_ * ref().degree(v) + 2 * kappa_;
    for (NodeId w : g().nodes()) {
        if (g().degree(v) > bound) break;
        if (w != v && !g().has_edge(v, w)) g().add_black_edge(v, w);
    }
    ASSERT_GT(g().degree(v), bound) << "graph too small to exceed the bound";
    expect_fires("degree-bound");
    EXPECT_THROW(check_degree_bound(g(), ref(), kappa_), util::ContractViolation);
}

TEST_F(InvariantOracles, DisconnectingEdgeRemovalFires) {
    // Cut every edge of one node, claim by claim, isolating it.
    NodeId v = g().nodes().front();
    while (g().degree(v) > 0) {
        NodeId w = g().neighbors(v).front();
        std::vector<ColorId> colors(g().claims(v, w).colors.begin(),
                                    g().claims(v, w).colors.end());
        for (ColorId c : colors) g().remove_color_claim(v, w, c);
        g().remove_black_claim(v, w);
    }
    expect_fires("connectivity");
    EXPECT_THROW(check_connected(g()), util::ContractViolation);
}

}  // namespace
