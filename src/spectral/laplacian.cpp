#include "spectral/laplacian.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "graph/algorithms.hpp"
#include "spectral/csr.hpp"
#include "spectral/jacobi.hpp"
#include "spectral/lanczos.hpp"

namespace xheal::spectral {

using graph::Graph;

namespace {

/// Seed of the sparse path's random Lanczos start (ProbeEngine's default).
constexpr std::uint64_t lanczos_seed = 12345;

DenseMatrix dense_laplacian(const CsrGraph& csr, LaplacianKind kind) {
    std::size_t n = csr.size();
    DenseMatrix m(n);
    for (std::uint32_t i = 0; i < n; ++i) {
        std::size_t deg_i = csr.degree(i);
        if (deg_i == 0) continue;  // isolated vertex: zero row
        if (kind == LaplacianKind::combinatorial) {
            m.at(i, i) = static_cast<double>(deg_i);
            for (std::uint32_t j : csr.row(i)) m.at(i, j) = -1.0;
        } else {
            m.at(i, i) = 1.0;
            double di = std::sqrt(static_cast<double>(deg_i));
            for (std::uint32_t j : csr.row(i)) {
                double dj = std::sqrt(static_cast<double>(csr.degree(j)));
                m.at(i, j) = -1.0 / (di * dj);
            }
        }
    }
    return m;
}

/// Exhaustive Lanczos over the snapshot's normalized-Laplacian operator with
/// the D^{1/2} 1 kernel deflated: the arithmetic of
/// ProbeEngine::lambda2_sparse, so the two agree bitwise.
LanczosResult sparse_fiedler(const CsrGraph& csr) {
    std::vector<double> kernel, scaled;
    csr.normalized_kernel(kernel);
    LinearOperator apply = [&csr, &scaled](const std::vector<double>& x,
                                           std::vector<double>& y) {
        csr.apply_normalized_laplacian(x, y, scaled);
    };
    util::Rng rng(lanczos_seed);
    LanczosResult res = lanczos_smallest(apply, csr.size(), kernel, rng);
    res.value = std::max(0.0, res.value);  // clamp tiny negative round-off
    return res;
}

/// The < 2 node / disconnected gate both front-ends share (lambda2 = 0).
bool trivially_zero(const Graph& g) {
    return g.node_count() < 2 || !graph::is_connected(g);
}

}  // namespace

DenseMatrix laplacian_dense(const Graph& g, LaplacianKind kind) {
    CsrGraph csr;
    csr.build(g);
    return dense_laplacian(csr, kind);
}

std::vector<double> laplacian_spectrum(const Graph& g, LaplacianKind kind) {
    return jacobi_eigenvalues(laplacian_dense(g, kind));
}

FiedlerResult fiedler(const Graph& g) {
    FiedlerResult out;
    if (trivially_zero(g)) return out;
    CsrGraph csr;
    csr.build(g);
    out.nodes = csr.nodes();
    LanczosResult res = sparse_fiedler(csr);
    out.lambda2 = res.value;
    out.vector = std::move(res.vector);
    return out;
}

double lambda2(const Graph& g) {
    if (trivially_zero(g)) return 0.0;
    CsrGraph csr;
    csr.build(g);
    return sparse_fiedler(csr).value;
}

}  // namespace xheal::spectral
