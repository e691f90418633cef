#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "spectral/jacobi.hpp"
#include "spectral/lanczos.hpp"
#include "spectral/laplacian.hpp"
#include "spectral/tridiag.hpp"
#include "workload/generators.hpp"

namespace {

using namespace xheal::spectral;
namespace wl = xheal::workload;
using xheal::graph::Graph;

TEST(DenseMatrix, MultiplyAndSymmetry) {
    DenseMatrix m(2);
    m.at(0, 0) = 2.0;
    m.at(0, 1) = 1.0;
    m.at(1, 0) = 1.0;
    m.at(1, 1) = 3.0;
    auto y = m.multiply({1.0, 2.0});
    EXPECT_DOUBLE_EQ(y[0], 4.0);
    EXPECT_DOUBLE_EQ(y[1], 7.0);
    EXPECT_DOUBLE_EQ(m.symmetry_error(), 0.0);
}

TEST(Jacobi, DiagonalMatrixEigenvalues) {
    DenseMatrix m(3);
    m.at(0, 0) = 3.0;
    m.at(1, 1) = -1.0;
    m.at(2, 2) = 2.0;
    auto vals = jacobi_eigenvalues(m);
    ASSERT_EQ(vals.size(), 3u);
    EXPECT_NEAR(vals[0], -1.0, 1e-10);
    EXPECT_NEAR(vals[1], 2.0, 1e-10);
    EXPECT_NEAR(vals[2], 3.0, 1e-10);
}

TEST(Jacobi, TwoByTwoKnownEigenpairs) {
    DenseMatrix m(2);
    m.at(0, 0) = 2.0;
    m.at(0, 1) = 1.0;
    m.at(1, 0) = 1.0;
    m.at(1, 1) = 2.0;
    auto eig = jacobi_eigen(m);
    EXPECT_NEAR(eig.values[0], 1.0, 1e-10);
    EXPECT_NEAR(eig.values[1], 3.0, 1e-10);
    // Eigenvector for 1 is (1,-1)/sqrt(2) up to sign.
    double ratio = eig.vectors.at(0, 0) / eig.vectors.at(1, 0);
    EXPECT_NEAR(ratio, -1.0, 1e-8);
}

TEST(Laplacian, CompleteGraphSpectrum) {
    // K_n combinatorial Laplacian: {0, n (n-1 times)}.
    auto g = wl::make_complete(6);
    auto vals = laplacian_spectrum(g, LaplacianKind::combinatorial);
    EXPECT_NEAR(vals[0], 0.0, 1e-9);
    for (std::size_t i = 1; i < vals.size(); ++i) EXPECT_NEAR(vals[i], 6.0, 1e-9);
}

TEST(Laplacian, StarSpectrum) {
    // Star with c center + n leaves: {0, 1 (n-1 times), n+1}.
    auto g = wl::make_star(5);
    auto vals = laplacian_spectrum(g, LaplacianKind::combinatorial);
    ASSERT_EQ(vals.size(), 6u);
    EXPECT_NEAR(vals[0], 0.0, 1e-9);
    for (std::size_t i = 1; i <= 4; ++i) EXPECT_NEAR(vals[i], 1.0, 1e-9);
    EXPECT_NEAR(vals[5], 6.0, 1e-9);
}

TEST(Laplacian, CycleSpectrum) {
    // C_n: eigenvalues 2 - 2cos(2 pi k / n).
    std::size_t n = 8;
    auto g = wl::make_cycle(n);
    auto vals = laplacian_spectrum(g, LaplacianKind::combinatorial);
    std::vector<double> expected;
    for (std::size_t k = 0; k < n; ++k)
        expected.push_back(2.0 - 2.0 * std::cos(2.0 * std::numbers::pi *
                                                static_cast<double>(k) / static_cast<double>(n)));
    std::sort(expected.begin(), expected.end());
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(vals[i], expected[i], 1e-8);
}

TEST(Laplacian, PathSpectrum) {
    // P_n: eigenvalues 4 sin^2(pi k / (2n)).
    std::size_t n = 7;
    auto g = wl::make_path(n);
    auto vals = laplacian_spectrum(g, LaplacianKind::combinatorial);
    std::vector<double> expected;
    for (std::size_t k = 0; k < n; ++k) {
        double s = std::sin(std::numbers::pi * static_cast<double>(k) /
                            (2.0 * static_cast<double>(n)));
        expected.push_back(4.0 * s * s);
    }
    std::sort(expected.begin(), expected.end());
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(vals[i], expected[i], 1e-8);
}

TEST(Laplacian, NormalizedSpectrumInZeroTwo) {
    auto g = wl::make_petersen();
    auto vals = laplacian_spectrum(g, LaplacianKind::normalized);
    for (double v : vals) {
        EXPECT_GE(v, -1e-9);
        EXPECT_LE(v, 2.0 + 1e-9);
    }
    EXPECT_NEAR(vals[0], 0.0, 1e-9);
}

TEST(Laplacian, NormalizedCompleteGraph) {
    // K_n normalized Laplacian: {0, n/(n-1) repeated}.
    auto g = wl::make_complete(5);
    auto vals = laplacian_spectrum(g, LaplacianKind::normalized);
    for (std::size_t i = 1; i < vals.size(); ++i) EXPECT_NEAR(vals[i], 5.0 / 4.0, 1e-9);
}

TEST(Tridiag, MatchesJacobiOnTridiagonal) {
    std::vector<double> diag{2.0, 3.0, 1.0, 4.0};
    std::vector<double> off{1.0, 0.5, -0.25};
    auto tvals = tridiag_eigenvalues(diag, off);

    DenseMatrix m(4);
    for (std::size_t i = 0; i < 4; ++i) m.at(i, i) = diag[i];
    for (std::size_t i = 0; i < 3; ++i) {
        m.at(i, i + 1) = off[i];
        m.at(i + 1, i) = off[i];
    }
    auto jvals = jacobi_eigenvalues(m);
    for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(tvals[i], jvals[i], 1e-9);
}

TEST(Tridiag, EigenvectorsSatisfyDefinition) {
    std::vector<double> diag{1.0, 2.0, 3.0};
    std::vector<double> off{0.5, 0.5};
    auto eig = tridiag_eigen(diag, off);
    for (std::size_t k = 0; k < 3; ++k) {
        const auto& v = eig.vectors[k];
        // T v = lambda v componentwise.
        std::vector<double> tv(3, 0.0);
        tv[0] = diag[0] * v[0] + off[0] * v[1];
        tv[1] = off[0] * v[0] + diag[1] * v[1] + off[1] * v[2];
        tv[2] = off[1] * v[1] + diag[2] * v[2];
        for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(tv[i], eig.values[k] * v[i], 1e-9);
    }
}

TEST(Lambda2, Lambda2OfDisconnectedIsZero) {
    Graph g;
    g.add_node();
    g.add_node();
    g.add_node();
    g.add_black_edge(0, 1);
    EXPECT_DOUBLE_EQ(lambda2(g), 0.0);
}

TEST(Lambda2, CombinatorialPathFormula) {
    // lambda2(P_n) = 4 sin^2(pi/(2n)), read from the dense reference
    // spectrum (lambda2() itself is normalized-only).
    std::size_t n = 10;
    auto g = wl::make_path(n);
    double expected = 4.0 * std::pow(std::sin(std::numbers::pi / (2.0 * n)), 2);
    EXPECT_NEAR(laplacian_spectrum(g, LaplacianKind::combinatorial)[1], expected, 1e-8);
}

TEST(Lambda2, LanczosAgreesWithDenseOnLargeGraph) {
    // 13x13 grid has 169 nodes: above dense_spectral_limit, so fiedler()
    // takes the Lanczos path; compare against the dense Jacobi answer.
    auto g = wl::make_grid(13, 13);
    ASSERT_GT(g.node_count(), dense_spectral_limit);
    auto dense_vals = laplacian_spectrum(g, LaplacianKind::normalized);
    double sparse = lambda2(g);
    EXPECT_NEAR(sparse, dense_vals[1], 1e-6);
}

TEST(Lambda2, HypercubeCombinatorial) {
    // Q_d combinatorial Laplacian eigenvalues are 2k; lambda2 = 2.
    auto g = wl::make_hypercube(4);
    EXPECT_NEAR(laplacian_spectrum(g, LaplacianKind::combinatorial)[1], 2.0, 1e-7);
}

TEST(Lanczos, SmallestEigenvalueOfExplicitOperator) {
    // Operator diag(1..6) with no deflation: smallest eigenvalue 1.
    std::size_t n = 6;
    LinearOperator apply = [n](const std::vector<double>& x, std::vector<double>& y) {
        for (std::size_t i = 0; i < n; ++i) y[i] = static_cast<double>(i + 1) * x[i];
    };
    xheal::util::Rng rng(3);
    auto res = lanczos_smallest(apply, n, {}, rng);
    EXPECT_NEAR(res.value, 1.0, 1e-8);
    // Ritz vector concentrates on coordinate 0.
    EXPECT_GT(std::abs(res.vector[0]), 0.99);
}

TEST(Fiedler, VectorSeparatesDumbbell) {
    // The Fiedler vector of a dumbbell splits the two cliques by sign.
    auto g = wl::make_dumbbell(6);
    auto fr = fiedler(g);
    ASSERT_EQ(fr.nodes.size(), 12u);
    // Nodes 0..5 are clique A, 6..11 clique B.
    double sign_a = fr.vector[0] >= 0 ? 1.0 : -1.0;
    for (std::size_t i = 0; i < 6; ++i) EXPECT_GT(sign_a * fr.vector[i], -1e-6);
    for (std::size_t i = 6; i < 12; ++i) EXPECT_LT(sign_a * fr.vector[i], 1e-6);
}

}  // namespace
