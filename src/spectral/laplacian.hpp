// Graph Laplacians and the algebraic-connectivity front-end.
//
// The paper's lambda(G) (Theorem 1, Theorem 2(4)) is the second-smallest
// eigenvalue of the *normalized* Laplacian L = I - D^{-1/2} A D^{-1/2}
// (Chung's convention, which the Cheeger inequality 2*phi >= lambda >
// phi^2/2 requires). The dense reference constructions also provide the
// combinatorial Laplacian D - A for tests against closed-form spectra.
//
// Every routine renumbers the live nodes through a CsrGraph snapshot
// (csr.hpp); the sparse path runs Lanczos over the same operator and kernel
// as ProbeEngine, so lambda2() above the dense limit is bitwise the
// engine's exhaustive lambda2_sparse().
#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.hpp"
#include "spectral/dense_matrix.hpp"

namespace xheal::spectral {

enum class LaplacianKind {
    combinatorial,  ///< D - A
    normalized,     ///< I - D^{-1/2} A D^{-1/2}
};

/// Node count at or below which lambda2/fiedler (and ProbeEngine's auto
/// probe) use dense Jacobi; sparse Lanczos above it.
inline constexpr std::size_t dense_spectral_limit = 160;

/// Dense Laplacian with rows/columns in graph.nodes() order (ascending id).
/// Isolated vertices contribute an all-zero row in both conventions.
DenseMatrix laplacian_dense(const graph::Graph& g, LaplacianKind kind);

/// All Laplacian eigenvalues (ascending) via Jacobi; n <= ~400 advised.
std::vector<double> laplacian_spectrum(const graph::Graph& g, LaplacianKind kind);

struct FiedlerResult {
    double lambda2 = 0.0;
    /// Eigenvector y of the normalized Laplacian, aligned with `nodes`
    /// (sweep callers rescale by D^{-1/2} themselves). Empty, like `nodes`,
    /// for graphs with < 2 nodes and disconnected graphs.
    std::vector<double> vector;
    std::vector<graph::NodeId> nodes;
};

/// Second-smallest eigenvalue of the normalized Laplacian. Dense Jacobi
/// (values only) up to dense_spectral_limit nodes, exhaustive sparse
/// Lanczos above. Returns 0 for graphs with < 2 nodes and for disconnected
/// graphs. Deterministic.
double lambda2(const graph::Graph& g);

/// lambda2 together with the Fiedler vector (for sweep cuts).
FiedlerResult fiedler(const graph::Graph& g);

}  // namespace xheal::spectral
