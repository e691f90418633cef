// Minimal dense symmetric matrix for the Jacobi reference eigensolver
// (jacobi.hpp), part of the tests' support library: the library itself
// never materializes one — every lambda2 and Fiedler solve runs matrix-free
// Lanczos over a CSR snapshot — so dense matrices (n <= a few hundred)
// exist only for the tests' reference spectra.
#pragma once

#include <cstddef>
#include <vector>

#include "util/expects.hpp"

namespace xheal::spectral {

class DenseMatrix {
public:
    DenseMatrix() = default;
    explicit DenseMatrix(std::size_t n) : n_(n), data_(n * n, 0.0) {}

    std::size_t size() const { return n_; }

    double& at(std::size_t i, std::size_t j) {
        XHEAL_EXPECTS(i < n_ && j < n_);
        return data_[i * n_ + j];
    }
    double at(std::size_t i, std::size_t j) const {
        XHEAL_EXPECTS(i < n_ && j < n_);
        return data_[i * n_ + j];
    }

    /// y = M * x. Requires x.size() == n.
    std::vector<double> multiply(const std::vector<double>& x) const;

    /// max |M(i,j) - M(j,i)|, for symmetry checks in tests.
    double symmetry_error() const;

private:
    std::size_t n_ = 0;
    std::vector<double> data_;
};

}  // namespace xheal::spectral
