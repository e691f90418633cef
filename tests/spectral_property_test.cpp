// Parameterized property sweep over graph families for the spectral
// toolkit: solver agreement (the Jacobi reference vs the Lanczos runtime
// solve), estimator ordering (spectral lower bound <= exact <= sweep upper
// bound), Cheeger inequality, the sweep's Cheeger upper bound, and
// normalized-spectrum range. One TEST_P instance per family.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "graph/algorithms.hpp"
#include "spectral/expansion.hpp"
#include "spectral/lanczos.hpp"
#include "spectral/laplacian.hpp"
#include "support/dense_laplacian.hpp"
#include "support/deterministic.hpp"
#include "support/graph_reference.hpp"
#include "workload/generators.hpp"

namespace {

using namespace xheal::spectral;
using xheal::graph::Graph;
namespace wl = xheal::workload;

struct SpectralParam {
    std::string name;
    std::function<Graph()> make;
};

std::string param_name(const ::testing::TestParamInfo<SpectralParam>& info) {
    return info.param.name;
}

class SpectralPropertyTest : public ::testing::TestWithParam<SpectralParam> {};

TEST_P(SpectralPropertyTest, NormalizedSpectrumWithinZeroTwo) {
    Graph g = GetParam().make();
    auto vals = laplacian_spectrum(g, LaplacianKind::normalized);
    EXPECT_NEAR(vals.front(), 0.0, 1e-8);
    for (double v : vals) {
        EXPECT_GE(v, -1e-8);
        EXPECT_LE(v, 2.0 + 1e-8);
    }
}

TEST_P(SpectralPropertyTest, CombinatorialSpectrumSumsToTwoM) {
    // trace(L) = sum of degrees = 2m.
    Graph g = GetParam().make();
    auto vals = laplacian_spectrum(g, LaplacianKind::combinatorial);
    double sum = 0.0;
    for (double v : vals) sum += v;
    EXPECT_NEAR(sum, 2.0 * static_cast<double>(g.edge_count()), 1e-6);
}

TEST_P(SpectralPropertyTest, DenseAndSparseLambda2Agree) {
    Graph g = GetParam().make();
    auto dense_vals = laplacian_spectrum(g, LaplacianKind::normalized);
    // lambda2() is Lanczos at every size; Jacobi is the reference.
    double l2 = lambda2(g);
    EXPECT_NEAR(l2, dense_vals[1], 1e-5);
}

TEST_P(SpectralPropertyTest, EstimatorOrdering) {
    Graph g = GetParam().make();
    if (g.node_count() > exact_expansion_limit) GTEST_SKIP();
    double exact = edge_expansion_exact(g);
    double sweep = sweep_cut(g).expansion;
    EXPECT_GE(sweep, exact - 1e-9);
}

TEST_P(SpectralPropertyTest, CheegerInequalityExact) {
    Graph g = GetParam().make();
    if (g.node_count() > exact_expansion_limit) GTEST_SKIP();
    double phi = cheeger_exact(g);
    double l2 = lambda2(g);
    EXPECT_GE(2.0 * phi + 1e-9, l2);
    EXPECT_GT(l2, phi * phi / 2.0 - 1e-9);
}

TEST_P(SpectralPropertyTest, SweepMeetsCheegerUpperBound) {
    // The sweep over the Fiedler vector guarantees phi <= sqrt(2 lambda2):
    // any vector of the lambda2 eigenspace must deliver it, at every size.
    Graph g = GetParam().make();
    EXPECT_LE(sweep_cut(g).conductance, std::sqrt(2.0 * lambda2(g)) + 1e-9);
}

TEST_P(SpectralPropertyTest, ConductanceOfSweepSideMatchesReport) {
    // The sweep's best_side must actually realize the reported conductance.
    Graph g = GetParam().make();
    auto sweep = sweep_cut(g);
    if (sweep.best_side.empty()) GTEST_SKIP();
    std::vector<xheal::graph::NodeId> side = sweep.best_side;
    std::sort(side.begin(), side.end());
    std::size_t cut = xheal::graph::cut_size(g, side);
    std::size_t vol = g.volume(sweep.best_side);
    std::size_t total = 2 * g.edge_count();
    double phi = static_cast<double>(cut) /
                 static_cast<double>(std::min(vol, total - vol));
    EXPECT_NEAR(phi, sweep.conductance, 1e-9);
}

std::vector<SpectralParam> make_params() {
    return {
        {"path16", [] { return wl::make_path(16); }},
        {"cycle17", [] { return wl::make_cycle(17); }},
        {"star15", [] { return wl::make_star(15); }},
        {"complete12", [] { return wl::make_complete(12); }},
        {"grid4x4", [] { return wl::make_grid(4, 4); }},
        {"torus4x4", [] { return wl::make_torus(4, 4); }},
        {"hypercube4", [] { return wl::make_hypercube(4); }},
        {"tree15", [] { return wl::make_binary_tree(15); }},
        {"dumbbell8", [] { return wl::make_dumbbell(8); }},
        {"petersen", [] { return wl::make_petersen(); }},
        {"regular4",
         [] {
             xheal::util::Rng rng(5);
             return wl::make_random_regular(16, 4, rng);
         }},
        {"er18",
         [] {
             xheal::util::Rng rng(6);
             return wl::make_erdos_renyi(18, 0.3, rng);
         }},
        {"hgraph16",
         [] {
             xheal::util::Rng rng(7);
             return wl::make_hgraph_graph(16, 3, rng);
         }},
        {"margulis25",
         [] {
             return xheal::expander::make_margulis_expander(5);
         }},
        {"debruijn20",
         [] { return xheal::expander::make_debruijn_graph(20); }},
    };
}

INSTANTIATE_TEST_SUITE_P(Families, SpectralPropertyTest,
                         ::testing::ValuesIn(make_params()), param_name);

TEST(LanczosLargeAgreement, GridAndRegularAboveTheExactStepBudget) {
    // Explicit large-n agreement checks beyond the parameterized families,
    // above the size where the exhaustive Krylov space is exhausted.
    xheal::util::Rng rng(8);
    for (auto make : {std::function<Graph()>([] { return wl::make_grid(14, 14); }),
                      std::function<Graph()>([&rng] {
                          return wl::make_random_regular(220, 4, rng);
                      })}) {
        Graph g = make();
        auto dense_vals = laplacian_spectrum(g, LaplacianKind::normalized);
        EXPECT_NEAR(lambda2(g), dense_vals[1], 1e-5);
    }
}

}  // namespace
