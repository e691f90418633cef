// Cyclic Jacobi eigensolver for dense symmetric matrices — the test
// reference for the Lanczos solves.
//
// Robust and simple: repeatedly rotates away the off-diagonal entries until
// the off-diagonal norm falls below tolerance. O(n^3) per sweep; intended
// for n up to a few hundred. No runtime path calls it: every lambda2 and
// Fiedler solve runs Lanczos (lanczos.hpp), and laplacian_spectrum() feeds
// this solver to the tests that check those solves.
#pragma once

#include <vector>

#include "spectral/dense_matrix.hpp"

namespace xheal::spectral {

/// All eigenvalues of a symmetric matrix, ascending. Requires symmetry
/// (checked to 1e-9).
std::vector<double> jacobi_eigenvalues(DenseMatrix m, double tolerance = 1e-12,
                                       int max_sweeps = 100);

}  // namespace xheal::spectral
