// The Theorem 2(4) spectral bound, the reference curve of bench_spectral
// (T2.4): how far lambda(G_t) may fall below the insert-only reference's
// lambda(G'_t).
#pragma once

#include <cstddef>

namespace xheal::core {

/// Theorem 2(4) lower-bound formula for lambda(G_t), evaluated from the
/// reference graph's spectral data:
///   min( lambda'^2 * dmin'^2 / (8 * (kappa * dmax')^2),
///        1 / (2 * (kappa * dmax')^2) ).
double theorem2_lambda_bound(double lambda_ref, std::size_t dmin_ref,
                             std::size_t dmax_ref, std::size_t kappa);

}  // namespace xheal::core
