#include <gtest/gtest.h>

#include <cmath>

#include "core/metrics.hpp"
#include "graph/algorithms.hpp"
#include "graph/graph.hpp"
#include "spectral/probes.hpp"
#include "support/theorem2.hpp"
#include "workload/generators.hpp"

namespace {

using namespace xheal::core;
using xheal::graph::Graph;
using xheal::graph::NodeId;
namespace wl = xheal::workload;

TEST(DegreeIncreaseMetric, IdenticalGraphsHaveRatioOne) {
    auto g = wl::make_cycle(8);
    auto r = degree_increase(g, g);
    EXPECT_DOUBLE_EQ(r.max_ratio, 1.0);
    EXPECT_DOUBLE_EQ(r.mean_ratio, 1.0);
}

TEST(DegreeIncreaseMetric, DetectsBlowup) {
    Graph ref = wl::make_path(4);  // degrees 1,2,2,1
    Graph g = wl::make_path(4);
    g.add_black_edge(0, 2);
    g.add_black_edge(0, 3);  // node 0: degree 3 vs ref 1
    auto r = degree_increase(g, ref);
    EXPECT_DOUBLE_EQ(r.max_ratio, 3.0);
    EXPECT_EQ(r.argmax, 0u);
    EXPECT_GT(r.mean_ratio, 1.0);
}

TEST(DegreeIncreaseMetric, SkipsZeroReferenceDegree) {
    Graph ref;
    ref.add_node();
    ref.add_node();
    Graph g = ref;
    g.add_black_edge(0, 1);
    auto r = degree_increase(g, ref);
    EXPECT_DOUBLE_EQ(r.max_ratio, 0.0);  // no node with positive ref degree
}

TEST(DegreeIncreaseMetric, IgnoresDeletedNodes) {
    Graph ref = wl::make_star(4);
    Graph g = ref;
    g.remove_node(0);  // hub deleted; leaves have degree 0 in g
    auto r = degree_increase(g, ref);
    EXPECT_DOUBLE_EQ(r.max_ratio, 0.0);
}

TEST(StretchMetric, ExactWhenSamplesCoverGraph) {
    auto ref = wl::make_cycle(6);
    Graph g = ref;
    g.remove_black_claim(0, 5);
    EXPECT_DOUBLE_EQ(xheal::graph::stretch_vs(g, ref), 5.0);
}

TEST(StretchMetric, AtLeastOne) {
    auto g = wl::make_complete(5);
    EXPECT_DOUBLE_EQ(xheal::graph::stretch_vs(g, g), 1.0);
}

TEST(StretchMetric, SampledBoundedByExact) {
    auto ref = wl::make_grid(4, 4);
    Graph g = ref;
    g.remove_black_claim(0, 1);
    xheal::spectral::CsrGraph csr, ref_csr;
    csr.build(g);
    ref_csr.build(ref);
    xheal::util::Rng rng(5);
    std::vector<NodeId> sources;
    xheal::spectral::ProbeEngine::sample_stretch_sources(csr, 4, rng, sources);
    double sampled = xheal::spectral::ProbeEngine().stretch_over_sources(csr, ref_csr, sources);
    EXPECT_LE(sampled, xheal::graph::stretch_vs(g, ref) + 1e-12);
}

TEST(Theorem2Bound, MatchesClosedForm) {
    // lambda' = 1, dmin = dmax = 4, kappa = 8: term1 = 16/(8*32^2) = 1/512;
    // term2 = 1/(2*32^2) = 1/2048. Bound takes the min.
    double b = theorem2_lambda_bound(1.0, 4, 4, 8);
    EXPECT_NEAR(b, 1.0 / 2048.0, 1e-15);
}

TEST(Theorem2Bound, SmallLambdaMakesTerm1Bind) {
    double b = theorem2_lambda_bound(0.01, 4, 4, 8);
    double term1 = 0.01 * 0.01 * 16.0 / (8.0 * 1024.0);
    EXPECT_NEAR(b, term1, 1e-15);
}

TEST(Theorem2Bound, ZeroDegreeGuard) {
    EXPECT_DOUBLE_EQ(theorem2_lambda_bound(1.0, 0, 0, 4), 0.0);
}

TEST(Theorem2Bound, DecreasesWithKappa) {
    EXPECT_GT(theorem2_lambda_bound(0.5, 3, 6, 4), theorem2_lambda_bound(0.5, 3, 6, 8));
}

}  // namespace
