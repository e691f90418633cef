// Cyclic Jacobi eigensolver for dense symmetric matrices — the tests'
// reference for the library's Lanczos solves.
//
// Robust and simple: repeatedly rotates away the off-diagonal entries until
// the off-diagonal norm falls below tolerance. O(n^3) per sweep; intended
// for n up to a few hundred. The library never calls it: every lambda2 and
// Fiedler solve runs Lanczos (spectral/lanczos.hpp), and
// laplacian_spectrum() (dense_laplacian.hpp) feeds this solver to the tests
// that check those solves.
#pragma once

#include <vector>

#include "support/dense_matrix.hpp"

namespace xheal::spectral {

/// All eigenvalues of a symmetric matrix, ascending. Requires symmetry
/// (checked to 1e-9).
std::vector<double> jacobi_eigenvalues(DenseMatrix m, double tolerance = 1e-12,
                                       int max_sweeps = 100);

}  // namespace xheal::spectral
