#include "support/theorem2.hpp"

#include <algorithm>

#include "util/expects.hpp"

namespace xheal::core {

double theorem2_lambda_bound(double lambda_ref, std::size_t dmin_ref,
                             std::size_t dmax_ref, std::size_t kappa) {
    XHEAL_EXPECTS(kappa >= 1);
    if (dmax_ref == 0) return 0.0;
    double kd = static_cast<double>(kappa) * static_cast<double>(dmax_ref);
    double term1 = lambda_ref * lambda_ref * static_cast<double>(dmin_ref) *
                   static_cast<double>(dmin_ref) / (8.0 * kd * kd);
    double term2 = 1.0 / (2.0 * kd * kd);
    return std::min(term1, term2);
}

}  // namespace xheal::core
