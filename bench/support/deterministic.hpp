// Deterministic expander constructions.
//
// The paper notes (Section 1) that Xheal's randomized H-graph construction
// "can be improved if one can design efficient distributed constructions
// that yield expanders deterministically. (To the best of our knowledge no
// such construction is known.)" — meaning no *dynamic self-maintaining*
// one. Static deterministic expanders do exist; we provide two as an
// extension/ablation substrate:
//
//   * Margulis-Gabber-Galil: the classic 8-regular expander on Z_m x Z_m,
//     with a provable constant spectral gap;
//   * de Bruijn style shuffle-exchange edges, an any-size deterministic
//     quasi-expander.
//
// bench_ablation compares them against the random H-graph as a cloud
// topology at equal size: the trade-off is determinism vs maintainability
// (neither supports O(1) INSERT/DELETE, which is why Xheal uses H-graphs).
#pragma once

#include <cstddef>

#include "graph/graph.hpp"

namespace xheal::expander {

/// Margulis-Gabber-Galil expander over Z_m x Z_m (node id = x*m + y).
/// 8-regular as a multigraph; the returned simple graph has degree <= 8.
/// Requires m >= 2.
graph::Graph make_margulis_expander(std::size_t m);

/// Deterministic shuffle-exchange (de Bruijn style) graph on nodes 0..n-1:
/// node i connects to (2i) mod n, (2i+1) mod n and i+1 mod n. Degree <= 7
/// in the simple projection; connected for every n >= 2.
graph::Graph make_debruijn_graph(std::size_t n);

}  // namespace xheal::expander
