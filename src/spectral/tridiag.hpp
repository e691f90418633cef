// Symmetric tridiagonal eigensolver (implicit-shift QL, EISPACK tql2
// lineage). Used to diagonalize the Lanczos T matrix.
#pragma once

#include <cstddef>
#include <vector>

namespace xheal::spectral {

/// Buffers for tridiag_smallest, reused across calls: once they have seen
/// the largest m, a call allocates nothing.
struct TridiagWorkspace {
    std::vector<double> d, e, z;
    std::vector<std::size_t> order;
    std::vector<double> vector;  ///< eigenvector of the smallest eigenvalue
};

/// The smallest eigenpair of the symmetric tridiagonal matrix with diagonal
/// `diag` (size m >= 1) and off-diagonal `off` (size m-1; off[i] couples i
/// and i+1): returns the smallest eigenvalue and leaves its unit
/// eigenvector, in the basis the matrix was given in, in ws.vector.
double tridiag_smallest(const std::vector<double>& diag, const std::vector<double>& off,
                        TridiagWorkspace& ws);

}  // namespace xheal::spectral
