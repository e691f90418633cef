#include <gtest/gtest.h>

#include "spectral/expansion.hpp"
#include "spectral/laplacian.hpp"
#include "workload/generators.hpp"

namespace {

using namespace xheal::spectral;
namespace wl = xheal::workload;
using xheal::graph::Graph;

TEST(ExactExpansion, CompleteGraph) {
    // K_n: h = n - floor(n/2) = ceil(n/2).
    EXPECT_DOUBLE_EQ(edge_expansion_exact(wl::make_complete(4)), 2.0);
    EXPECT_DOUBLE_EQ(edge_expansion_exact(wl::make_complete(5)), 3.0);
    EXPECT_DOUBLE_EQ(edge_expansion_exact(wl::make_complete(6)), 3.0);
}

TEST(ExactExpansion, CycleAndPath) {
    // C_n: best cut is an arc of floor(n/2) nodes with 2 crossing edges.
    EXPECT_DOUBLE_EQ(edge_expansion_exact(wl::make_cycle(8)), 2.0 / 4.0);
    EXPECT_DOUBLE_EQ(edge_expansion_exact(wl::make_cycle(9)), 2.0 / 4.0);
    // P_n: one crossing edge over floor(n/2) nodes.
    EXPECT_DOUBLE_EQ(edge_expansion_exact(wl::make_path(8)), 1.0 / 4.0);
}

TEST(ExactExpansion, StarIsOne) {
    EXPECT_DOUBLE_EQ(edge_expansion_exact(wl::make_star(7)), 1.0);
}

TEST(ExactExpansion, DumbbellIsBridgeOverClique) {
    auto g = wl::make_dumbbell(5);
    EXPECT_DOUBLE_EQ(edge_expansion_exact(g), 1.0 / 5.0);
}

TEST(ExactExpansion, DisconnectedIsZero) {
    Graph g;
    for (int i = 0; i < 4; ++i) g.add_node();
    g.add_black_edge(0, 1);
    g.add_black_edge(2, 3);
    EXPECT_DOUBLE_EQ(edge_expansion_exact(g), 0.0);
}

TEST(ExactCheeger, CompleteGraph) {
    // K_4: best cut S of 2 nodes: cut=4, vol(S)=6 -> phi = 2/3.
    EXPECT_NEAR(cheeger_exact(wl::make_complete(4)), 4.0 / 6.0, 1e-12);
}

TEST(ExactCheeger, CycleMatchesFormula) {
    // C_8: cut 2, vol of half = 8 -> phi = 1/4.
    EXPECT_NEAR(cheeger_exact(wl::make_cycle(8)), 0.25, 1e-12);
}

TEST(ExactCheeger, DumbbellSmall) {
    // Dumbbell of cliques of 4: cut=1, side volume = 4*3+1 = 13.
    EXPECT_NEAR(cheeger_exact(wl::make_dumbbell(4)), 1.0 / 13.0, 1e-12);
}

TEST(CheegerInequality, HoldsOnGraphZoo) {
    // Theorem 1: 2*phi >= lambda2 > phi^2 / 2 (normalized Laplacian).
    std::vector<Graph> zoo;
    zoo.push_back(wl::make_path(9));
    zoo.push_back(wl::make_cycle(10));
    zoo.push_back(wl::make_complete(7));
    zoo.push_back(wl::make_star(8));
    zoo.push_back(wl::make_dumbbell(5));
    zoo.push_back(wl::make_petersen());
    zoo.push_back(wl::make_grid(3, 4));
    for (const auto& g : zoo) {
        double phi = cheeger_exact(g);
        double l2 = lambda2(g);
        EXPECT_GE(2.0 * phi + 1e-9, l2);
        EXPECT_GT(l2, phi * phi / 2.0 - 1e-9);
    }
}

TEST(SweepCut, UpperBoundsExactOnSmallGraphs) {
    std::vector<Graph> zoo;
    zoo.push_back(wl::make_cycle(12));
    zoo.push_back(wl::make_dumbbell(6));
    zoo.push_back(wl::make_grid(3, 5));
    for (const auto& g : zoo) {
        auto sweep = sweep_cut(g);
        EXPECT_GE(sweep.expansion + 1e-9, edge_expansion_exact(g));
        EXPECT_GE(sweep.conductance + 1e-9, cheeger_exact(g));
    }
}

TEST(SweepCut, FindsTheDumbbellBottleneckExactly) {
    // The Fiedler sweep must discover the single bridge cut.
    auto g = wl::make_dumbbell(8);
    auto sweep = sweep_cut(g);
    EXPECT_NEAR(sweep.conductance, cheeger_exact(g), 1e-9);
    EXPECT_EQ(sweep.best_side.size(), 8u);
}

TEST(SweepCut, DisconnectedReturnsZero) {
    Graph g;
    for (int i = 0; i < 4; ++i) g.add_node();
    g.add_black_edge(0, 1);
    g.add_black_edge(2, 3);
    auto sweep = sweep_cut(g);
    EXPECT_DOUBLE_EQ(sweep.expansion, 0.0);
    EXPECT_DOUBLE_EQ(sweep.conductance, 0.0);
}

TEST(Estimators, SwitchBetweenExactAndSweep) {
    auto small = wl::make_cycle(10);
    EXPECT_DOUBLE_EQ(edge_expansion_estimate(small), edge_expansion_exact(small));
    auto large = wl::make_cycle(200);
    // Sweep on a cycle finds an arc cut: 2 / 100.
    EXPECT_NEAR(edge_expansion_estimate(large), 0.02, 0.02);
    EXPECT_GT(edge_expansion_estimate(large), 0.0);
}

TEST(ExactExpansion, RandomRegularIsExpander) {
    // Small random 4-regular graphs have constant expansion (T4 smoke).
    xheal::util::Rng rng(17);
    for (int trial = 0; trial < 3; ++trial) {
        auto g = wl::make_random_regular(14, 4, rng);
        EXPECT_GE(edge_expansion_exact(g), 0.5);
    }
}

}  // namespace
