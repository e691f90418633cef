#include <gtest/gtest.h>

#include "baseline/baselines.hpp"
#include "core/session.hpp"
#include "core/xheal_healer.hpp"
#include "graph/algorithms.hpp"
#include "spectral/expansion.hpp"
#include "support/graph_reference.hpp"
#include "workload/generators.hpp"

namespace {

using namespace xheal::baseline;
using xheal::core::HealingSession;
using xheal::graph::Graph;
using xheal::graph::NodeId;
namespace wl = xheal::workload;

template <typename H>
void expect_connectivity_under_random_attack(std::uint64_t seed) {
    xheal::util::Rng rng(seed);
    Graph initial = wl::make_erdos_renyi(24, 0.25, rng);
    HealingSession s(initial, std::make_unique<H>());
    for (int step = 0; step < 18; ++step) {
        auto alive = s.alive_pool();
        s.delete_node(alive[rng.index(alive.size())]);
        EXPECT_TRUE(xheal::graph::is_connected(s.current()))
            << s.healer().name() << " lost connectivity at step " << step;
    }
}

TEST(Baselines, LineHealerKeepsConnectivity) {
    expect_connectivity_under_random_attack<LineHealer>(1);
}
TEST(Baselines, CycleHealerKeepsConnectivity) {
    expect_connectivity_under_random_attack<CycleHealer>(2);
}
TEST(Baselines, StarHealerKeepsConnectivity) {
    expect_connectivity_under_random_attack<StarHealer>(3);
}
TEST(Baselines, ForgivingTreeKeepsConnectivity) {
    expect_connectivity_under_random_attack<ForgivingTreeStyleHealer>(4);
}

TEST(Baselines, NoHealDisconnectsStars) {
    Graph g = wl::make_star(5);
    NoHealHealer healer;
    healer.on_delete(g, 0);
    EXPECT_FALSE(xheal::graph::is_connected(g));
    EXPECT_EQ(g.edge_count(), 0u);
}

TEST(Baselines, LineHealerPathStructure) {
    Graph g = wl::make_star(5);
    LineHealer healer;
    auto report = healer.on_delete(g, 0);
    EXPECT_EQ(report.edges_added, 4u);
    EXPECT_EQ(g.edge_count(), 4u);
    // Endpoints have degree 1, middles degree 2.
    EXPECT_EQ(g.degree(1), 1u);
    EXPECT_EQ(g.degree(3), 2u);
}

TEST(Baselines, CycleHealerClosesTheLoop) {
    Graph g = wl::make_star(5);
    CycleHealer healer;
    healer.on_delete(g, 0);
    for (NodeId v : g.nodes()) EXPECT_EQ(g.degree(v), 2u);
}

TEST(Baselines, StarHealerConcentratesDegree) {
    Graph g = wl::make_star(9);
    StarHealer healer;
    healer.on_delete(g, 0);
    // The hub simply moved: one node has degree 8 again.
    EXPECT_EQ(g.max_degree(), 8u);
}

TEST(Baselines, ForgivingTreeDegreeBounded) {
    Graph g = wl::make_star(31);
    ForgivingTreeStyleHealer healer;
    healer.on_delete(g, 0);
    // Binary-tree repair: at most 3 new edges per node (two children + parent).
    EXPECT_LE(g.max_degree(), 3u);
    EXPECT_TRUE(xheal::graph::is_connected(g));
    // Diameter is O(log n), not O(n).
    auto diam = xheal::graph::diameter_exact(g);
    ASSERT_TRUE(diam.has_value());
    EXPECT_LE(*diam, 10u);
}

TEST(Baselines, ForgivingTreeExpansionCollapsesOnStar) {
    // The paper's argument against tree repairs: deleting the star center
    // and healing with a tree leaves expansion O(1/n), while Xheal keeps a
    // constant. (See bench_star for the full sweep.)
    Graph g = wl::make_star(16);
    ForgivingTreeStyleHealer healer;
    healer.on_delete(g, 0);
    double h_tree = xheal::spectral::edge_expansion_exact(g);
    EXPECT_LE(h_tree, 0.26);  // ~1/8 on 16 nodes; generous bound

    Graph g2 = wl::make_star(16);
    xheal::core::XhealHealer xh(xheal::core::XhealConfig{3, 5});
    xh.on_delete(g2, 0);
    double h_xheal = xheal::spectral::edge_expansion_exact(g2);
    EXPECT_GT(h_xheal, h_tree * 3.0);
}

TEST(Baselines, RandomMatchKeepsConnectivity) {
    expect_connectivity_under_random_attack<RandomMatchHealer>(5);
}

TEST(Baselines, RandomMatchDegreeGrowsUnboundedOverTime) {
    // Ablation: without cloud bookkeeping, repeated healing keeps stacking
    // edges on survivors. Compare against Xheal's bounded ratio.
    xheal::util::Rng rng(6);
    Graph initial = wl::make_erdos_renyi(30, 0.2, rng);

    HealingSession random_s(initial, std::make_unique<RandomMatchHealer>(3));
    HealingSession xheal_s(initial,
                           std::make_unique<xheal::core::XhealHealer>(
                               xheal::core::XhealConfig{2, 7}));
    xheal::util::Rng attack(9);
    for (int step = 0; step < 22; ++step) {
        auto alive = random_s.alive_pool();
        NodeId victim = alive[attack.index(alive.size())];
        random_s.delete_node(victim);
        xheal_s.delete_node(victim);
    }
    auto ratio = [](const HealingSession& s) {
        double worst = 0.0;
        for (NodeId v : s.current().nodes()) {
            std::size_t dref = s.reference().degree(v);
            if (dref == 0) continue;
            worst = std::max(worst, static_cast<double>(s.current().degree(v)) /
                                        static_cast<double>(dref));
        }
        return worst;
    };
    // Xheal's bound is kappa * d' + 2kappa; random matching typically
    // exceeds Xheal's realized max ratio on the same attack.
    EXPECT_GE(ratio(random_s), ratio(xheal_s) * 0.8);
}

TEST(Baselines, HandleDegreeZeroAndOne) {
    for (auto make : {+[]() -> std::unique_ptr<xheal::core::Healer> {
                          return std::make_unique<LineHealer>();
                      },
                      +[]() -> std::unique_ptr<xheal::core::Healer> {
                          return std::make_unique<CycleHealer>();
                      },
                      +[]() -> std::unique_ptr<xheal::core::Healer> {
                          return std::make_unique<StarHealer>();
                      },
                      +[]() -> std::unique_ptr<xheal::core::Healer> {
                          return std::make_unique<ForgivingTreeStyleHealer>();
                      }}) {
        Graph g = wl::make_path(2);
        g.add_node();  // isolated node 2
        auto healer = make();
        healer->on_delete(g, 2);  // degree 0
        healer->on_delete(g, 0);  // degree 1
        EXPECT_EQ(g.node_count(), 1u);
        EXPECT_EQ(g.edge_count(), 0u);
    }
}

}  // namespace
