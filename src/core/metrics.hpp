// Success metrics of the model (Fig. 1): degree increase, comparing the
// healed graph G_t with the insert-only reference G'_t. Network stretch is
// graph::stretch_vs (exact) and the ProbeEngine's sampled stretch probe;
// edge expansion and lambda2 live in spectral/. The Theorem 2(4) spectral
// bound is bench_spectral's reference curve (bench/support/theorem2.hpp).
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

}  // namespace xheal::core
