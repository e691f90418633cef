// Symmetric tridiagonal eigensolver (implicit-shift QL, EISPACK tql2
// lineage). Used to diagonalize the Lanczos T matrix.
#pragma once

#include <vector>

namespace xheal::spectral {

struct TridiagEigen {
    /// Eigenvalues ascending.
    std::vector<double> values;
    /// vectors[k] is the (m-dimensional) eigenvector for values[k], expressed
    /// in the basis the tridiagonal matrix was given in.
    std::vector<std::vector<double>> vectors;
};

/// Eigen-decomposition of the symmetric tridiagonal matrix with diagonal
/// `diag` (size m) and off-diagonal `off` (size m-1; off[i] couples i,i+1).
/// Requires m >= 1.
TridiagEigen tridiag_eigen(std::vector<double> diag, std::vector<double> off);

/// Eigenvalues only (ascending).
std::vector<double> tridiag_eigenvalues(std::vector<double> diag, std::vector<double> off);

/// Buffers for tridiag_smallest, reused across calls: once they have seen
/// the largest m, a call allocates nothing.
struct TridiagWorkspace {
    std::vector<double> d, e, z;
    std::vector<std::size_t> order;
    std::vector<double> vector;  ///< eigenvector of the smallest eigenvalue
};

/// The smallest eigenpair only: returns the smallest eigenvalue and leaves
/// its eigenvector in ws.vector. Bitwise equal to tridiag_eigen(diag, off)'s
/// values.front() and vectors.front().
double tridiag_smallest(const std::vector<double>& diag, const std::vector<double>& off,
                        TridiagWorkspace& ws);

}  // namespace xheal::spectral
