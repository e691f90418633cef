#include "support/dense_laplacian.hpp"

#include <cmath>
#include <cstdint>

#include "spectral/csr.hpp"
#include "support/jacobi.hpp"

namespace xheal::spectral {

namespace {

/// Dense Laplacian with rows/columns in graph.nodes() order (ascending id).
/// Isolated vertices contribute an all-zero row in both conventions.
DenseMatrix laplacian_dense(const graph::Graph& g, LaplacianKind kind) {
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

std::vector<double> laplacian_spectrum(const graph::Graph& g, LaplacianKind kind) {
    return jacobi_eigenvalues(laplacian_dense(g, kind));
}

}  // namespace xheal::spectral
