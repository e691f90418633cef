// Success metrics of the model (Fig. 1): degree increase and the Theorem
// 2(4) spectral bound, comparing the healed graph G_t with the insert-only
// reference G'_t. Network stretch is graph::stretch_vs (exact) and the
// ProbeEngine's sampled stretch probe; edge expansion and lambda2 live in
// spectral/.
#pragma once

#include <cstddef>

#include "graph/graph.hpp"

namespace xheal::core {

struct DegreeIncrease {
    double max_ratio = 0.0;              ///< max_v deg_G(v) / deg_G'(v)
    double mean_ratio = 0.0;
    graph::NodeId argmax = graph::invalid_node;
};

/// Degree-increase metric over nodes alive in g with positive reference
/// degree.
DegreeIncrease degree_increase(const graph::Graph& g, const graph::Graph& ref);

/// Theorem 2(4) lower-bound formula for lambda(G_t), evaluated from the
/// reference graph's spectral data:
///   min( lambda'^2 * dmin'^2 / (8 * (kappa * dmax')^2),
///        1 / (2 * (kappa * dmax')^2) ).
double theorem2_lambda_bound(double lambda_ref, std::size_t dmin_ref,
                             std::size_t dmax_ref, std::size_t kappa);

}  // namespace xheal::core
