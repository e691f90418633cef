// Graph Laplacians and the algebraic-connectivity front-end.
//
// The paper's lambda(G) (Theorem 1, Theorem 2(4)) is the second-smallest
// eigenvalue of the *normalized* Laplacian L = I - D^{-1/2} A D^{-1/2}
// (Chung's convention, which the Cheeger inequality 2*phi >= lambda >
// phi^2/2 requires).
//
// lambda2() and fiedler() are the cold exhaustive solve of
// ProbeEngine::lambda2_sparse (probes.hpp), the one Lanczos front end:
// exact to round-off below ProbeEngine::exact_lanczos_steps nodes, where
// the Krylov space is exhausted. fiedler() feeds the sweep cut behind the
// expansion probe; lambda2() is the one-call form the paper benches and the
// tests read (a run probes through ProbeEngine's CSR entry points). The dense Jacobi reference spectrum the
// tests check these against (laplacian_spectrum, which also covers the
// combinatorial Laplacian D - A) lives in the tests' support library,
// tests/support/dense_laplacian.hpp.
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace xheal::spectral {

struct FiedlerResult {
    double lambda2 = 0.0;
    /// Eigenvector y of the normalized Laplacian, aligned with `nodes`
    /// (sweep callers rescale by D^{-1/2} themselves). Empty, like `nodes`,
    /// for graphs with < 2 nodes and disconnected graphs.
    std::vector<double> vector;
    std::vector<graph::NodeId> nodes;
};

/// Second-smallest eigenvalue of the normalized Laplacian:
/// ProbeEngine().lambda2_sparse(g). Returns 0 for graphs with < 2 nodes and
/// for disconnected graphs. Deterministic.
double lambda2(const graph::Graph& g);

/// lambda2 together with the Fiedler vector (for sweep cuts).
FiedlerResult fiedler(const graph::Graph& g);

}  // namespace xheal::spectral
