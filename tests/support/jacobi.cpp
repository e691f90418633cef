#include "support/jacobi.hpp"

#include <algorithm>
#include <cmath>

namespace xheal::spectral {

namespace {

double off_diagonal_norm(const DenseMatrix& m) {
    double sum = 0.0;
    for (std::size_t i = 0; i < m.size(); ++i)
        for (std::size_t j = i + 1; j < m.size(); ++j) sum += m.at(i, j) * m.at(i, j);
    return std::sqrt(2.0 * sum);
}

/// One cyclic sweep of Jacobi rotations over all (p, q) pairs.
void sweep(DenseMatrix& m) {
    std::size_t n = m.size();
    for (std::size_t p = 0; p + 1 < n; ++p) {
        for (std::size_t q = p + 1; q < n; ++q) {
            double apq = m.at(p, q);
            if (apq == 0.0) continue;
            double app = m.at(p, p);
            double aqq = m.at(q, q);
            double theta = (aqq - app) / (2.0 * apq);
            double t = (theta >= 0.0 ? 1.0 : -1.0) /
                       (std::abs(theta) + std::sqrt(theta * theta + 1.0));
            double c = 1.0 / std::sqrt(t * t + 1.0);
            double s = t * c;

            for (std::size_t k = 0; k < n; ++k) {
                double mkp = m.at(k, p);
                double mkq = m.at(k, q);
                m.at(k, p) = c * mkp - s * mkq;
                m.at(k, q) = s * mkp + c * mkq;
            }
            for (std::size_t k = 0; k < n; ++k) {
                double mpk = m.at(p, k);
                double mqk = m.at(q, k);
                m.at(p, k) = c * mpk - s * mqk;
                m.at(q, k) = s * mpk + c * mqk;
            }
        }
    }
}

}  // namespace

std::vector<double> jacobi_eigenvalues(DenseMatrix m, double tolerance, int max_sweeps) {
    XHEAL_EXPECTS(m.symmetry_error() < 1e-9);
    double scale = 0.0;
    for (std::size_t i = 0; i < m.size(); ++i) scale = std::max(scale, std::abs(m.at(i, i)));
    scale = std::max(scale, 1.0);
    for (int iter = 0; iter < max_sweeps; ++iter) {
        if (off_diagonal_norm(m) <= tolerance * scale) break;
        sweep(m);
    }
    std::vector<double> values(m.size());
    for (std::size_t i = 0; i < m.size(); ++i) values[i] = m.at(i, i);
    std::sort(values.begin(), values.end());
    return values;
}

}  // namespace xheal::spectral
