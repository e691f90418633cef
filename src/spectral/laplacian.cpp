#include "spectral/laplacian.hpp"

#include <cmath>
#include <cstdint>

#include "spectral/csr.hpp"
#include "spectral/jacobi.hpp"
#include "spectral/probes.hpp"

namespace xheal::spectral {

using graph::Graph;

namespace {

/// Dense Laplacian with rows/columns in graph.nodes() order (ascending id).
/// Isolated vertices contribute an all-zero row in both conventions.
DenseMatrix laplacian_dense(const Graph& g, LaplacianKind kind) {
    CsrGraph csr;
    csr.build(g);
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

}  // namespace

std::vector<double> laplacian_spectrum(const Graph& g, LaplacianKind kind) {
    return jacobi_eigenvalues(laplacian_dense(g, kind));
}

FiedlerResult fiedler(const Graph& g) {
    ProbeEngine engine;
    FiedlerResult out;
    out.lambda2 = engine.lambda2_sparse(g);
    if (engine.ritz_vector().empty()) return out;  // < 2 nodes or disconnected
    out.vector = engine.ritz_vector();
    out.nodes = engine.ritz_nodes();
    return out;
}

double lambda2(const Graph& g) { return ProbeEngine().lambda2_sparse(g); }

}  // namespace xheal::spectral
