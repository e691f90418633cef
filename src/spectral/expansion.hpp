// Edge expansion h(G) and Cheeger constant (conductance) phi(G).
//
//   h(G)   = min_{0 < |S| <= n/2}  |E(S, S~)| / |S|
//   phi(G) = min_S |E(S, S~)| / min(vol(S), vol(S~))
//
// Both are NP-hard to compute in general; we provide
//   * exact values by Gray-code subset enumeration for n <= exact limit, and
//   * Fiedler sweep-cut upper bounds for larger graphs.
// Benches report which estimator produced each number.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.hpp"

namespace xheal::spectral {

/// Hard cap for the exact enumerators (2^n states are visited).
inline constexpr std::size_t exact_expansion_limit = 24;

/// Node count at or below which the *_estimate functions enumerate exactly.
inline constexpr std::size_t estimate_exact_limit = 18;
static_assert(estimate_exact_limit <= exact_expansion_limit);

/// Exact edge expansion. 0 for disconnected or trivial (< 2 node) graphs.
/// Requires node_count() <= exact_expansion_limit.
double edge_expansion_exact(const graph::Graph& g);

/// Exact Cheeger constant (conductance). Same preconditions.
double cheeger_exact(const graph::Graph& g);

struct SweepResult {
    double expansion = 0.0;    ///< best h over sweep prefixes (upper bound on h)
    double conductance = 0.0;  ///< best phi over sweep prefixes (upper bound on phi)
    /// The vertex side achieving the best conductance cut (smaller volume side).
    std::vector<graph::NodeId> best_side;
};

/// Fiedler sweep cut: order vertices by D^{-1/2}-scaled Fiedler vector and
/// take the best prefix cut. Upper bounds on h and phi. Returns zeros for
/// disconnected graphs.
SweepResult sweep_cut(const graph::Graph& g);

/// h estimate: exact when n <= estimate_exact_limit, else sweep upper bound.
double edge_expansion_estimate(const graph::Graph& g);

/// phi estimate: exact when n <= estimate_exact_limit, else sweep upper bound.
double cheeger_estimate(const graph::Graph& g);

}  // namespace xheal::spectral
