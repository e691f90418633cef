#include "spectral/lanczos.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/expects.hpp"

namespace xheal::spectral {

namespace {

double dot(const std::vector<double>& a, const std::vector<double>& b) {
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
    return s;
}

double norm(const std::vector<double>& a) { return std::sqrt(dot(a, a)); }

void axpy(std::vector<double>& y, double alpha, const std::vector<double>& x) {
    for (std::size_t i = 0; i < y.size(); ++i) y[i] += alpha * x[i];
}

void scale(std::vector<double>& y, double alpha) {
    for (double& v : y) v *= alpha;
}

/// Remove the components of v along the first `rows` basis vectors plus the
/// kernel: one full modified Gram-Schmidt pass.
void orthogonalize(std::vector<double>& v, const std::vector<std::vector<double>>& basis,
                   std::size_t rows, const std::vector<double>& kernel) {
    if (!kernel.empty()) axpy(v, -dot(v, kernel), kernel);
    for (std::size_t i = 0; i < rows; ++i) axpy(v, -dot(v, basis[i]), basis[i]);
}

/// The three-term update of one step fused with its norm: w -= alpha·v_j,
/// then w -= beta·v_{j-1} when `prev` is given, in one pass that also sums
/// ‖w‖² in index order. Each entry sees the two separate axpys' operations
/// in their order, so w and the returned ‖w‖ are bitwise theirs.
double update_residual(std::vector<double>& w, double alpha, const std::vector<double>& vj,
                       double beta, const std::vector<double>* prev) {
    const std::size_t n = w.size();
    double* x = w.data();
    const double* v = vj.data();
    double sq = 0.0;
    if (prev == nullptr) {
        for (std::size_t i = 0; i < n; ++i) {
            x[i] += -alpha * v[i];
            sq += x[i] * x[i];
        }
    } else {
        const double* u = prev->data();
        for (std::size_t i = 0; i < n; ++i) {
            x[i] += -alpha * v[i];
            x[i] += -beta * u[i];
            sq += x[i] * x[i];
        }
    }
    return std::sqrt(sq);
}

/// out[r] = <w, rows[r]> for every row, each summed in index order (bitwise
/// dot()), in one blocked read of w: a block of w stays in L1 while every
/// row streams past it, four rows at a time, so w is read once instead of
/// once per row and four independent sums overlap.
void coefficients(const std::vector<double>& w, const std::vector<const double*>& rows,
                  std::vector<double>& out) {
    constexpr std::size_t block = 512;  // 4 KiB of w
    const std::size_t n = w.size(), count = rows.size();
    const double* x = w.data();
    out.assign(count, 0.0);
    double* c = out.data();
    for (std::size_t lo = 0; lo < n; lo += block) {
        const std::size_t hi = std::min(n, lo + block);
        std::size_t r = 0;
        for (; r + 4 <= count; r += 4) {
            const double *b0 = rows[r], *b1 = rows[r + 1], *b2 = rows[r + 2],
                         *b3 = rows[r + 3];
            double s0 = c[r], s1 = c[r + 1], s2 = c[r + 2], s3 = c[r + 3];
            for (std::size_t i = lo; i < hi; ++i) {
                s0 += x[i] * b0[i];
                s1 += x[i] * b1[i];
                s2 += x[i] * b2[i];
                s3 += x[i] * b3[i];
            }
            c[r] = s0;
            c[r + 1] = s1;
            c[r + 2] = s2;
            c[r + 3] = s3;
        }
        for (; r < count; ++r) {
            const double* b = rows[r];
            double s = c[r];
            for (std::size_t i = lo; i < hi; ++i) s += x[i] * b[i];
            c[r] = s;
        }
    }
}

/// Semi-orthogonal reorthogonalization of the new Lanczos residual w, whose
/// norm is wn (Simon, "The Lanczos algorithm with partial
/// reorthogonalization", Math. Comp. 1984): Ritz values stay accurate to
/// round-off while the basis is only orthogonal to sqrt(eps), so only the
/// components along the kernel and the first `rows` basis rows that exceed
/// sqrt(eps)·‖w‖ are subtracted. Most steps subtract nothing: one blocked
/// pass takes every coefficient against the unchanged w, and when none
/// crosses the threshold w is left alone. Otherwise the sequential pass
/// runs — each coefficient against the w its predecessors left, subtracting
/// the large ones — followed by a full pass, restoring orthogonality to
/// round-off. Either way the result is bitwise the sequential pass's, since
/// coefficients taken before the first subtraction are the same numbers.
/// Returns ‖w‖ on exit.
double reorthogonalize(std::vector<double>& w, double wn,
                       const std::vector<std::vector<double>>& basis, std::size_t rows,
                       const std::vector<double>& kernel, LanczosWorkspace& ws) {
    const double threshold = std::sqrt(std::numeric_limits<double>::epsilon()) * wn;
    ws.rows.clear();
    if (!kernel.empty()) ws.rows.push_back(kernel.data());
    for (std::size_t i = 0; i < rows; ++i) ws.rows.push_back(basis[i].data());
    coefficients(w, ws.rows, ws.coeffs);
    if (std::all_of(ws.coeffs.begin(), ws.coeffs.end(),
                    [&](double c) { return std::abs(c) <= threshold; }))
        return wn;

    bool subtracted = false;
    auto remove_if_large = [&](const std::vector<double>& b) {
        double c = dot(w, b);
        if (std::abs(c) <= threshold) return;
        axpy(w, -c, b);
        subtracted = true;
    };
    if (!kernel.empty()) remove_if_large(kernel);
    for (std::size_t i = 0; i < rows; ++i) remove_if_large(basis[i]);
    if (!subtracted) return wn;  // only a NaN coefficient gets here
    orthogonalize(w, basis, rows, kernel);
    return norm(w);
}

}  // namespace

LanczosResult lanczos_smallest(const LinearOperator& apply, std::size_t n,
                               const std::vector<double>& kernel, util::Rng& rng,
                               LanczosWorkspace& ws, std::size_t max_iterations,
                               double tolerance, const std::vector<double>* warm_start) {
    XHEAL_EXPECTS(n >= 1);
    XHEAL_EXPECTS(kernel.empty() || kernel.size() == n);

    LanczosResult result;
    if (n == 1) {
        // Only the kernel direction exists; nothing orthogonal to deflate.
        ws.ritz.assign(1, 1.0);
        std::vector<double> y(1, 0.0);
        apply(ws.ritz, y);
        result.value = y[0];
        result.converged = true;
        return result;
    }

    std::size_t m = std::min(max_iterations, n - (kernel.empty() ? 0 : 1));
    if (m == 0) m = 1;

    std::vector<std::vector<double>>& basis = ws.basis;
    std::vector<double>& alphas = ws.alphas;
    std::vector<double>& betas = ws.betas;
    if (basis.size() < m) basis.resize(m);
    alphas.clear();
    betas.clear();
    std::size_t rows = 0;  // live basis rows

    // Start vector orthogonal to the kernel, written straight into basis row
    // 0: the caller's warm vector when it survives deflation, else a random
    // draw. The iteration vector of step j is always basis[j].
    std::vector<double>& v = basis[0];
    v.resize(n);
    bool warm = false;
    if (warm_start != nullptr && warm_start->size() == n) {
        std::copy(warm_start->begin(), warm_start->end(), v.begin());
        orthogonalize(v, basis, rows, kernel);
        warm = norm(v) > 1e-8;
    }
    if (!warm) {
        for (double& x : v) x = rng.uniform01() - 0.5;
        orthogonalize(v, basis, rows, kernel);
    }
    double vn = norm(v);
    if (vn < 1e-14) {
        // Degenerate draw; retry deterministically with a basis vector mix.
        for (std::size_t i = 0; i < n; ++i) v[i] = (i % 2 == 0) ? 1.0 : -1.0;
        orthogonalize(v, basis, rows, kernel);
        vn = norm(v);
    }
    XHEAL_ASSERT(vn > 1e-14);
    scale(v, 1.0 / vn);

    std::vector<double>& w = ws.w;
    w.assign(n, 0.0);
    double previous_theta = 0.0;
    bool have_previous = false;

    for (std::size_t j = 0; j < m; ++j) {
        const std::vector<double>& vj = basis[j];
        rows = j + 1;
        apply(vj, w);
        double alpha = dot(w, vj);
        alphas.push_back(alpha);
        double wn = j > 0 ? update_residual(w, alpha, vj, betas.back(), &basis[j - 1])
                          : update_residual(w, alpha, vj, 0.0, nullptr);
        double beta = reorthogonalize(w, wn, basis, rows, kernel, ws);
        result.iterations = j + 1;

        // Convergence probe on the smallest Ritz value every few steps.
        // A warm-started run is expected to converge almost immediately, so
        // it probes eagerly; the cold cadence is unchanged.
        bool probe = warm ? (j >= 2 && j % 2 == 0) : (j >= 8 && j % 4 == 0);
        if (beta < 1e-12 || j + 1 == m || probe) {
            double theta = tridiag_smallest(alphas, betas, ws.tridiag);
            // Two exits. (a) Kaniel-Paige residual bound: |lambda - theta| <=
            // beta * |s_k| (last component of the tridiagonal Ritz vector) —
            // a rigorous certificate, decisive on gapped spectra and for warm
            // starts already near the eigenvector. (b) Ritz stagnation
            // between probes — the practical exit on clustered spectra
            // (large random regular graphs), where the residual decays like
            // the inverse cluster width and (a) may never fire within the
            // budget even though theta has long stopped moving at the
            // accuracy anyone can use.
            double residual = beta * std::abs(ws.tridiag.vector.back());
            if (residual <= tolerance * std::max(1.0, std::abs(theta))) {
                result.converged = true;
            }
            // The stagnation exit needs a minimum amount of real work first:
            // a warm start lands near a (probe-accurate, not exact) vector,
            // so theta barely moves in the first couple of steps even when
            // the run has plenty left to gain. Exiting there compounds the
            // start vector's error sample over sample. Eight iterations is
            // enough Krylov depth that a flat theta means flat for real.
            if (have_previous && j >= 8 &&
                std::abs(theta - previous_theta) <=
                    tolerance * std::max(1.0, std::abs(theta))) {
                result.converged = true;
            }
            previous_theta = theta;
            have_previous = true;
            if (beta < 1e-12) {
                result.converged = true;  // Krylov space exhausted: exact in span
                break;
            }
            if (result.converged && j + 1 < m) break;
        }
        if (j + 1 == m) break;
        betas.push_back(beta);
        std::vector<double>& next = basis[j + 1];
        next.resize(n);
        const double inv_beta = 1.0 / beta;
        for (std::size_t i = 0; i < n; ++i) next[i] = w[i] * inv_beta;
    }

    result.value = tridiag_smallest(alphas, betas, ws.tridiag);
    std::vector<double>& ritz = ws.ritz;
    ritz.assign(n, 0.0);
    const std::vector<double>& s = ws.tridiag.vector;
    for (std::size_t j = 0; j < rows; ++j) axpy(ritz, s[j], basis[j]);
    double rn = norm(ritz);
    if (rn > 1e-14) scale(ritz, 1.0 / rn);
    return result;
}

}  // namespace xheal::spectral
