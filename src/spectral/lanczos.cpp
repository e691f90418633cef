#include "spectral/lanczos.hpp"

#include <cmath>

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
/// kernel. Applied twice by callers for numerical robustness (classic
/// "twice is enough" Gram-Schmidt).
void orthogonalize(std::vector<double>& v, const std::vector<std::vector<double>>& basis,
                   std::size_t rows, const std::vector<double>& kernel) {
    if (!kernel.empty()) axpy(v, -dot(v, kernel), kernel);
    for (std::size_t i = 0; i < rows; ++i) axpy(v, -dot(v, basis[i]), basis[i]);
}

/// The solve proper; every buffer comes from `ws` and the Ritz vector is
/// left in ws.ritz.
LanczosResult solve(const LinearOperator& apply, std::size_t n,
                    const std::vector<double>& kernel, util::Rng& rng,
                    std::size_t max_iterations, double tolerance,
                    const std::vector<double>* warm_start, LanczosWorkspace& ws) {
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

    // Start vector orthogonal to the kernel: the caller's warm vector when
    // it survives deflation, else a random draw.
    std::vector<double>& v = ws.v;
    v.assign(n, 0.0);
    bool warm = false;
    if (warm_start != nullptr && warm_start->size() == n) {
        v = *warm_start;
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
        basis[j] = v;
        rows = j + 1;
        apply(v, w);
        double alpha = dot(w, v);
        alphas.push_back(alpha);
        axpy(w, -alpha, v);
        if (j > 0) axpy(w, -betas.back(), basis[j - 1]);
        // Full reorthogonalization, twice.
        orthogonalize(w, basis, rows, kernel);
        orthogonalize(w, basis, rows, kernel);
        double beta = norm(w);
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
        v = w;
        scale(v, 1.0 / beta);
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

}  // namespace

LanczosResult lanczos_smallest(const LinearOperator& apply, std::size_t n,
                               const std::vector<double>& kernel, util::Rng& rng,
                               std::size_t max_iterations, double tolerance,
                               const std::vector<double>* warm_start,
                               LanczosWorkspace* workspace) {
    if (workspace != nullptr)
        return solve(apply, n, kernel, rng, max_iterations, tolerance, warm_start,
                     *workspace);
    LanczosWorkspace local;
    LanczosResult result =
        solve(apply, n, kernel, rng, max_iterations, tolerance, warm_start, local);
    result.vector = std::move(local.ritz);
    return result;
}

}  // namespace xheal::spectral
