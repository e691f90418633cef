#include <gtest/gtest.h>

#include "support/random_walk.hpp"
#include "workload/generators.hpp"

namespace {

using namespace xheal::spectral;
using xheal::graph::Graph;
namespace wl = xheal::workload;

TEST(RandomWalk, StarCenterIsStationaryAfterOneStep) {
    // Stationary is pi(v) = deg(v) / 2m: 1/2 on the hub of a 4-leaf star
    // and 1/8 per leaf. One lazy step from the hub keeps 1/2 there and
    // moves 1/8 to each leaf, which is pi exactly (total variation 0).
    auto g = wl::make_star(4);
    EXPECT_EQ(mixing_time(g, 0, 1e-12), std::optional<std::size_t>{1});
}

TEST(RandomWalk, CompleteGraphMixesAlmostInstantly) {
    auto g = wl::make_complete(16);
    auto t = mixing_time(g, 0, 0.25);
    ASSERT_TRUE(t.has_value());
    EXPECT_LE(*t, 3u);
}

TEST(RandomWalk, PathMixesSlowly) {
    // From an endpoint of the path, its slowest start.
    auto fast = mixing_time(wl::make_complete(16), 0, 0.25);
    auto slow = mixing_time(wl::make_path(16), 0, 0.25);
    ASSERT_TRUE(fast.has_value());
    ASSERT_TRUE(slow.has_value());
    EXPECT_GT(*slow, 4 * *fast);
}

TEST(RandomWalk, DisconnectedNeverMixes) {
    Graph g;
    for (int i = 0; i < 4; ++i) g.add_node();
    g.add_black_edge(0, 1);
    g.add_black_edge(2, 3);
    EXPECT_EQ(mixing_time(g, 0, 0.1, 500), std::nullopt);
}

TEST(RandomWalk, PreliminariesExampleExpanderVsTwoCliques) {
    // The paper's Preliminaries example: an expander mixes in O(log n)
    // steps; two cliques joined by one edge (similar edge expansion,
    // conductance O(1/n)) mix polynomially slowly.
    xheal::util::Rng rng(5);
    auto expander = wl::make_random_regular(16, 4, rng);
    auto dumbbell = wl::make_dumbbell(8);  // also 16 nodes; 0 ends the bridge
    auto t_exp = mixing_time(expander, 0, 0.25);
    auto t_dumb = mixing_time(dumbbell, 0, 0.25);
    ASSERT_TRUE(t_exp.has_value());
    ASSERT_TRUE(t_dumb.has_value());
    EXPECT_GT(*t_dumb, 5 * *t_exp);
}

}  // namespace
