// Least-squares fits used to check asymptotic shapes (e.g. "stretch grows
// like O(log n)", "rounds per repair grow like O(log n)").
#pragma once

#include <vector>

namespace xheal::util {

/// y ~= intercept + slope * x with the coefficient of determination r2
/// (ordinary least squares; both fits need at least two points).
struct LinearFit {
    double slope = 0.0;
    double intercept = 0.0;
    double r2 = 0.0;
};

/// Fit y against log2(x): detects logarithmic growth. Requires x > 0.
LinearFit fit_vs_log2(const std::vector<double>& xs, const std::vector<double>& ys);

/// Fit log2(y) against log2(x): the slope is the polynomial exponent
/// (slope ~ 1 for linear growth, ~0 for constant). Requires x, y > 0.
LinearFit fit_loglog(const std::vector<double>& xs, const std::vector<double>& ys);

}  // namespace xheal::util
