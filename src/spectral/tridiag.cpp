#include "spectral/tridiag.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "util/expects.hpp"

namespace xheal::spectral {

namespace {

double sign_of(double a, double b) { return b >= 0.0 ? std::abs(a) : -std::abs(a); }

/// Implicit-shift QL on (d, e); accumulates rotations into z (m x m,
/// row-major, initialized to identity) when z != nullptr. 0-based
/// translation of the classic tql2 routine.
void ql_implicit(std::vector<double>& d, std::vector<double>& e, std::vector<double>* z) {
    std::size_t n = d.size();
    if (n <= 1) return;
    // e[i] couples d[i] and d[i+1]; pad to length n with trailing zero.
    e.push_back(0.0);

    for (std::size_t l = 0; l < n; ++l) {
        int iterations = 0;
        std::size_t m;
        do {
            for (m = l; m + 1 < n; ++m) {
                double dd = std::abs(d[m]) + std::abs(d[m + 1]);
                if (std::abs(e[m]) <= 1e-15 * dd) break;
            }
            if (m != l) {
                if (iterations++ == 60) throw std::runtime_error("tridiag QL did not converge");
                double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
                double r = std::hypot(g, 1.0);
                g = d[m] - d[l] + e[l] / (g + sign_of(r, g));
                double s = 1.0, c = 1.0, p = 0.0;
                bool underflow = false;
                for (std::size_t ip1 = m; ip1 > l; --ip1) {
                    std::size_t i = ip1 - 1;
                    double f = s * e[i];
                    double b = c * e[i];
                    r = std::hypot(f, g);
                    e[i + 1] = r;
                    if (r == 0.0) {
                        d[i + 1] -= p;
                        e[m] = 0.0;
                        underflow = true;
                        break;
                    }
                    s = f / r;
                    c = g / r;
                    g = d[i + 1] - p;
                    r = (d[i] - g) * s + 2.0 * c * b;
                    p = s * r;
                    d[i + 1] = g + p;
                    g = c * r - b;
                    if (z != nullptr) {
                        for (std::size_t k = 0; k < n; ++k) {
                            double zk = (*z)[k * n + i + 1];
                            (*z)[k * n + i + 1] = s * (*z)[k * n + i] + c * zk;
                            (*z)[k * n + i] = c * (*z)[k * n + i] - s * zk;
                        }
                    }
                }
                if (underflow) continue;
                d[l] -= p;
                e[l] = g;
                e[m] = 0.0;
            }
        } while (m != l);
    }
}

/// Diagonalize (d, e) in place with the rotations accumulated into z, and
/// sort the eigenvalue indices ascending into `order`. Shared by
/// tridiag_eigen and tridiag_smallest so both pick the same index, ties
/// included.
void diagonalize(std::vector<double>& d, std::vector<double>& e, std::vector<double>& z,
                 std::vector<std::size_t>& order) {
    XHEAL_EXPECTS(!d.empty());
    XHEAL_EXPECTS(e.size() + 1 == d.size());
    std::size_t n = d.size();
    z.assign(n * n, 0.0);
    for (std::size_t i = 0; i < n; ++i) z[i * n + i] = 1.0;
    ql_implicit(d, e, &z);

    order.resize(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return d[a] < d[b]; });
}

}  // namespace

TridiagEigen tridiag_eigen(std::vector<double> diag, std::vector<double> off) {
    std::vector<double> z;
    std::vector<std::size_t> order;
    diagonalize(diag, off, z, order);
    std::size_t n = diag.size();

    TridiagEigen out;
    out.values.resize(n);
    out.vectors.assign(n, std::vector<double>(n, 0.0));
    for (std::size_t k = 0; k < n; ++k) {
        out.values[k] = diag[order[k]];
        for (std::size_t i = 0; i < n; ++i) out.vectors[k][i] = z[i * n + order[k]];
    }
    return out;
}

double tridiag_smallest(const std::vector<double>& diag, const std::vector<double>& off,
                        TridiagWorkspace& ws) {
    ws.d.assign(diag.begin(), diag.end());
    ws.e.assign(off.begin(), off.end());
    diagonalize(ws.d, ws.e, ws.z, ws.order);
    std::size_t n = ws.d.size();
    std::size_t k = ws.order.front();
    ws.vector.resize(n);
    for (std::size_t i = 0; i < n; ++i) ws.vector[i] = ws.z[i * n + k];
    return ws.d[k];
}

std::vector<double> tridiag_eigenvalues(std::vector<double> diag, std::vector<double> off) {
    XHEAL_EXPECTS(!diag.empty());
    XHEAL_EXPECTS(off.size() + 1 == diag.size());
    ql_implicit(diag, off, nullptr);
    std::sort(diag.begin(), diag.end());
    return diag;
}

}  // namespace xheal::spectral
