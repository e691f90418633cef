#include "support/dense_matrix.hpp"

#include <algorithm>
#include <cmath>

namespace xheal::spectral {

std::vector<double> DenseMatrix::multiply(const std::vector<double>& x) const {
    XHEAL_EXPECTS(x.size() == n_);
    std::vector<double> y(n_, 0.0);
    for (std::size_t i = 0; i < n_; ++i) {
        double acc = 0.0;
        const double* row = &data_[i * n_];
        for (std::size_t j = 0; j < n_; ++j) acc += row[j] * x[j];
        y[i] = acc;
    }
    return y;
}

double DenseMatrix::symmetry_error() const {
    double worst = 0.0;
    for (std::size_t i = 0; i < n_; ++i)
        for (std::size_t j = i + 1; j < n_; ++j)
            worst = std::max(worst, std::abs(at(i, j) - at(j, i)));
    return worst;
}

}  // namespace xheal::spectral
