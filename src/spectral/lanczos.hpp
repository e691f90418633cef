// Lanczos iteration with full reorthogonalization for the smallest
// eigenpair of a symmetric PSD operator restricted to the complement of a
// known kernel vector. This is exactly the lambda2 computation for graph
// Laplacians: the kernel is the all-ones vector (combinatorial) or D^{1/2} 1
// (normalized), and the smallest eigenvalue orthogonal to it is the
// algebraic connectivity.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "spectral/tridiag.hpp"
#include "util/rng.hpp"

namespace xheal::spectral {

/// apply(x, y): y = A * x, with x.size() == y.size() == n.
using LinearOperator =
    std::function<void(const std::vector<double>&, std::vector<double>&)>;

struct LanczosResult {
    double value = 0.0;            ///< smallest Ritz value found
    std::vector<double> vector;    ///< corresponding Ritz vector (unit norm)
    std::size_t iterations = 0;    ///< Lanczos steps performed
    bool converged = false;        ///< Ritz value stabilized below tolerance
};

/// Scratch a caller keeps across solves so that steady-state solves
/// allocate nothing: the Krylov basis rows, the iteration vectors, the
/// tridiagonal coefficients and their eigensolver buffers, and the output
/// Ritz vector. Buffers only grow.
struct LanczosWorkspace {
    std::vector<std::vector<double>> basis;  ///< rows past `iterations` are stale
    std::vector<double> v, w, alphas, betas;
    TridiagWorkspace tridiag;
    std::vector<double> ritz;  ///< Ritz vector of the last solve (unit norm)
};

/// Smallest eigenpair of A restricted to the orthogonal complement of
/// `kernel` (must be unit norm, or empty to disable deflation).
/// Deterministic given the rng state.
///
/// `warm_start`, when non-null and of size n, seeds the iteration with that
/// vector (re-orthogonalized against the kernel) instead of a random draw,
/// and probes convergence more eagerly — when the seed is the previous
/// sample's Ritz vector and the spectrum moved little, convergence drops
/// from tens of iterations to a handful. A degenerate warm vector (lies in
/// the kernel, wrong size) silently falls back to the cold random start.
///
/// `workspace`, when non-null, supplies every buffer of the solve; the Ritz
/// vector is then left in workspace->ritz and LanczosResult::vector stays
/// empty. Values are bitwise identical with or without a workspace.
LanczosResult lanczos_smallest(const LinearOperator& apply, std::size_t n,
                               const std::vector<double>& kernel, util::Rng& rng,
                               std::size_t max_iterations = 160,
                               double tolerance = 1e-9,
                               const std::vector<double>* warm_start = nullptr,
                               LanczosWorkspace* workspace = nullptr);

}  // namespace xheal::spectral
