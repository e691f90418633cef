// Random-walk mixing time. The paper motivates the Cheeger constant /
// lambda2 through mixing time (Preliminaries): an expander mixes in
// O(log n) steps, while two cliques joined by one edge — same *edge
// expansion* — mix polynomially slowly. bench_mixing reproduces that
// example quantitatively.
#pragma once

#include <cstddef>
#include <optional>

#include "graph/graph.hpp"

namespace xheal::spectral {

/// Number of lazy-walk steps (stay with probability 1/2, otherwise move to
/// a uniform neighbor) until the distribution started at `source` is within
/// `epsilon` total-variation distance of the stationary distribution
/// pi(v) = deg(v) / 2m. Returns nullopt if not mixed within max_steps (e.g.
/// disconnected graphs).
std::optional<std::size_t> mixing_time(const graph::Graph& g, graph::NodeId source,
                                       double epsilon = 0.25,
                                       std::size_t max_steps = 100000);

}  // namespace xheal::spectral
