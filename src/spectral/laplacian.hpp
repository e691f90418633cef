// Graph Laplacians and the algebraic-connectivity front-end.
//
// The paper's lambda(G) (Theorem 1, Theorem 2(4)) is the second-smallest
// eigenvalue of the *normalized* Laplacian L = I - D^{-1/2} A D^{-1/2}
// (Chung's convention, which the Cheeger inequality 2*phi >= lambda >
// phi^2/2 requires).
//
// Every routine renumbers the live nodes through a CsrGraph snapshot
// (csr.hpp). lambda2() and fiedler() run the one runtime eigensolver —
// exhaustive Lanczos over the same operator, kernel and seed as
// ProbeEngine — so lambda2() is bitwise the engine's lambda2_sparse() at
// every size. The dense constructions (laplacian_dense, laplacian_spectrum
// via Jacobi) are the test reference only: they also provide the
// combinatorial Laplacian D - A for checks against closed-form spectra.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "spectral/dense_matrix.hpp"

namespace xheal::spectral {

enum class LaplacianKind {
    combinatorial,  ///< D - A
    normalized,     ///< I - D^{-1/2} A D^{-1/2}
};

/// Dense Laplacian with rows/columns in graph.nodes() order (ascending id).
/// Isolated vertices contribute an all-zero row in both conventions.
DenseMatrix laplacian_dense(const graph::Graph& g, LaplacianKind kind);

/// All Laplacian eigenvalues (ascending) via dense Jacobi: the O(n^3)
/// reference the Lanczos solves are tested against; n <= ~400 advised.
std::vector<double> laplacian_spectrum(const graph::Graph& g, LaplacianKind kind);

struct FiedlerResult {
    double lambda2 = 0.0;
    /// Eigenvector y of the normalized Laplacian, aligned with `nodes`
    /// (sweep callers rescale by D^{-1/2} themselves). Empty, like `nodes`,
    /// for graphs with < 2 nodes and disconnected graphs.
    std::vector<double> vector;
    std::vector<graph::NodeId> nodes;
};

/// Second-smallest eigenvalue of the normalized Laplacian by exhaustive CSR
/// Lanczos (exact to round-off below ProbeEngine::exact_lanczos_steps
/// nodes, where the Krylov space is exhausted). Returns 0 for graphs with
/// < 2 nodes and for disconnected graphs. Deterministic.
double lambda2(const graph::Graph& g);

/// lambda2 together with the Fiedler vector (for sweep cuts).
FiedlerResult fiedler(const graph::Graph& g);

}  // namespace xheal::spectral
