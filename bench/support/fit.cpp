#include "support/fit.hpp"

#include <cmath>

#include "util/expects.hpp"

namespace xheal::util {

namespace {

/// Ordinary least squares on (x, y). Requires xs.size() == ys.size() >= 2.
LinearFit fit_linear(const std::vector<double>& xs, const std::vector<double>& ys) {
    XHEAL_EXPECTS(xs.size() == ys.size());
    XHEAL_EXPECTS(xs.size() >= 2);
    double n = static_cast<double>(xs.size());
    double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        sx += xs[i];
        sy += ys[i];
        sxx += xs[i] * xs[i];
        sxy += xs[i] * ys[i];
    }
    double denom = n * sxx - sx * sx;
    LinearFit fit;
    if (denom == 0.0) {
        fit.slope = 0.0;
        fit.intercept = sy / n;
    } else {
        fit.slope = (n * sxy - sx * sy) / denom;
        fit.intercept = (sy - fit.slope * sx) / n;
    }
    double mean_y = sy / n;
    double ss_tot = 0.0, ss_res = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        double pred = fit.intercept + fit.slope * xs[i];
        ss_res += (ys[i] - pred) * (ys[i] - pred);
        ss_tot += (ys[i] - mean_y) * (ys[i] - mean_y);
    }
    fit.r2 = ss_tot == 0.0 ? 1.0 : 1.0 - ss_res / ss_tot;
    return fit;
}

}  // namespace

LinearFit fit_vs_log2(const std::vector<double>& xs, const std::vector<double>& ys) {
    std::vector<double> lx;
    lx.reserve(xs.size());
    for (double x : xs) {
        XHEAL_EXPECTS(x > 0.0);
        lx.push_back(std::log2(x));
    }
    return fit_linear(lx, ys);
}

LinearFit fit_loglog(const std::vector<double>& xs, const std::vector<double>& ys) {
    std::vector<double> lx, ly;
    lx.reserve(xs.size());
    ly.reserve(ys.size());
    for (double x : xs) {
        XHEAL_EXPECTS(x > 0.0);
        lx.push_back(std::log2(x));
    }
    for (double y : ys) {
        XHEAL_EXPECTS(y > 0.0);
        ly.push_back(std::log2(y));
    }
    return fit_linear(lx, ly);
}

}  // namespace xheal::util
