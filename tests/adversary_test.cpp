#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "adversary/adversary.hpp"
#include "baseline/baselines.hpp"
#include "core/xheal_healer.hpp"
#include "graph/algorithms.hpp"
#include "workload/generators.hpp"

namespace {

using namespace xheal;
using namespace xheal::adversary;
using core::HealingSession;
using graph::Graph;
using graph::NodeId;
namespace wl = workload;

HealingSession make_session(Graph g) {
    return HealingSession(std::move(g),
                          std::make_unique<core::XhealHealer>(core::XhealConfig{2, 3}));
}

TEST(Adversary, RandomPicksAliveNode) {
    auto s = make_session(wl::make_cycle(8));
    util::Rng rng(1);
    RandomDeletion strat;
    for (int i = 0; i < 20; ++i) {
        NodeId v = strat.pick(s, rng);
        EXPECT_TRUE(s.current().has_node(v));
    }
}

TEST(Adversary, MaxDegreeFindsTheHub) {
    auto s = make_session(wl::make_star(7));
    util::Rng rng(2);
    EXPECT_EQ(MaxDegreeDeletion{}.pick(s, rng), 0u);
}

TEST(Adversary, MinDegreeFindsALeaf) {
    auto s = make_session(wl::make_star(7));
    util::Rng rng(3);
    NodeId v = MinDegreeDeletion{}.pick(s, rng);
    EXPECT_NE(v, 0u);
    EXPECT_EQ(s.current().degree(v), 1u);
}

TEST(Adversary, CutPointPrefersArticulation) {
    auto s = make_session(wl::make_dumbbell(4));  // cut vertices 0 and 4
    util::Rng rng(4);
    NodeId v = CutPointDeletion{}.pick(s, rng);
    EXPECT_TRUE(v == 0 || v == 4);
}

TEST(Adversary, CutPointFallsBackOnBiconnected) {
    auto s = make_session(wl::make_cycle(6));
    util::Rng rng(5);
    NodeId v = CutPointDeletion{}.pick(s, rng);
    EXPECT_TRUE(s.current().has_node(v));
}

TEST(Adversary, ColoredDegreeTargetsHealedRegions) {
    auto s = make_session(wl::make_star(6));
    util::Rng rng(6);
    s.delete_node(0);  // creates a colored cloud among the leaves
    NodeId v = ColoredDegreeDeletion{}.pick(s, rng);
    std::size_t colored = 0;
    for (const auto& [u, claims] : s.current().row(v)) {
        (void)u;
        if (claims.colored()) ++colored;
    }
    EXPECT_GT(colored, 0u);
}

TEST(Adversary, ColoredDegreeFallsBackToRandomOnFreshGraph) {
    auto s = make_session(wl::make_cycle(6));
    util::Rng rng(7);
    NodeId v = ColoredDegreeDeletion{}.pick(s, rng);
    EXPECT_TRUE(s.current().has_node(v));
}

TEST(Adversary, BridgeHunterFindsBridges) {
    Graph g;
    // Two stars joined through x, then delete both centers -> secondary
    // cloud with bridges (see xheal_healer_test fixture).
    NodeId c1 = g.add_node(), c2 = g.add_node(), x = g.add_node();
    NodeId a1 = g.add_node(), a2 = g.add_node(), b1 = g.add_node(), b2 = g.add_node();
    for (NodeId v : {x, a1, a2}) g.add_black_edge(c1, v);
    for (NodeId v : {x, b1, b2}) g.add_black_edge(c2, v);
    auto healer = std::make_unique<core::XhealHealer>(core::XhealConfig{4, 7});
    const auto* registry = &healer->registry();
    HealingSession s(g, std::move(healer));
    s.delete_node(c1);
    s.delete_node(c2);
    s.delete_node(x);  // builds a secondary cloud

    util::Rng rng(8);
    BridgeHunterDeletion hunter(registry);
    NodeId v = hunter.pick(s, rng);
    ASSERT_NE(v, graph::invalid_node);
    EXPECT_FALSE(registry->is_free(v));
}

TEST(Adversary, RandomAttachPicksDistinctAlive) {
    auto s = make_session(wl::make_cycle(10));
    util::Rng rng(9);
    RandomAttach attach(4);
    auto nbrs = attach.pick_neighbors(s, rng);
    EXPECT_EQ(nbrs.size(), 4u);
    EXPECT_EQ(std::adjacent_find(nbrs.begin(), nbrs.end()), nbrs.end());
    for (NodeId v : nbrs) EXPECT_TRUE(s.current().has_node(v));
}

TEST(Adversary, PreferentialAttachFavorsHubs) {
    auto s = make_session(wl::make_star(20));
    util::Rng rng(10);
    PreferentialAttach attach(1);
    int hub_hits = 0;
    for (int i = 0; i < 60; ++i) {
        auto nbrs = attach.pick_neighbors(s, rng);
        ASSERT_EQ(nbrs.size(), 1u);
        if (nbrs[0] == 0) ++hub_hits;
    }
    // Hub holds half the total degree mass; uniform would give ~3 hits.
    EXPECT_GT(hub_hits, 15);
}

TEST(Adversary, PreferentialAttachMatchesDegreePlusOneDistribution) {
    // Chi-square goodness-of-fit of the rejection sampler against the exact
    // (degree+1)-proportional target, on a graph with a wide degree spread:
    // a star core (hub degree 11) plus a path tail of low-degree nodes.
    Graph g = wl::make_star(11);
    for (NodeId v = 12; v < 16; ++v) {
        g.add_node();
        g.add_black_edge(v, v - 1);
    }
    auto s = make_session(std::move(g));
    const auto& cur = s.current();

    util::Rng rng(123);
    PreferentialAttach attach(1);
    std::map<NodeId, std::size_t> observed;
    const std::size_t trials = 40000;
    for (std::size_t t = 0; t < trials; ++t) {
        auto nbrs = attach.pick_neighbors(s, rng);
        ASSERT_EQ(nbrs.size(), 1u);
        ++observed[nbrs[0]];
    }

    double total_weight = 0.0;
    for (NodeId v : cur.nodes()) total_weight += static_cast<double>(cur.degree(v) + 1);
    double chi2 = 0.0;
    std::size_t cells = 0;
    for (NodeId v : cur.nodes()) {
        double expected =
            static_cast<double>(trials) * static_cast<double>(cur.degree(v) + 1) /
            total_weight;
        double diff = static_cast<double>(observed[v]) - expected;
        chi2 += diff * diff / expected;
        ++cells;
    }
    // 16 cells -> 15 degrees of freedom; the 0.999 quantile is 37.7. The
    // seeded rng makes this deterministic — the margin guards the sampler,
    // not the rng.
    EXPECT_EQ(cells, 16u);
    EXPECT_LT(chi2, 37.7);
}

TEST(Adversary, PreferentialAttachPicksDistinctAliveWithoutReplacement) {
    auto s = make_session(wl::make_star(9));
    util::Rng rng(7);
    PreferentialAttach attach(4);
    for (int i = 0; i < 20; ++i) {
        auto nbrs = attach.pick_neighbors(s, rng);
        ASSERT_EQ(nbrs.size(), 4u);
        EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
        EXPECT_EQ(std::adjacent_find(nbrs.begin(), nbrs.end()), nbrs.end());
        for (NodeId v : nbrs) EXPECT_TRUE(s.current().has_node(v));
    }
}

}  // namespace
