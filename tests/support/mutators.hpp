// Test-only fault injection for the invariant-oracle tests: corrupt a graph
// row or a cloud registry's membership records and directory bookkeeping in
// ways the public API
// cannot, and edit a graph without recording the edit in its journals, so
// a fault looks like a bug outside the journaled mutation paths. The
// classes are friends of graph::Graph and core::CloudRegistry.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "core/cloud_registry.hpp"
#include "graph/graph.hpp"

namespace xheal::graph {

struct GraphTestAccess {
    /// Run `edit(g)`, then restore both journals (structure and claim) to
    /// what they held before it.
    template <typename F>
    static void unjournaled(Graph& g, F&& edit) {
        Graph::Journal structure = g.journal_;
        Graph::Journal claims = g.claim_journal_;
        edit(g);
        g.journal_ = std::move(structure);
        g.claim_journal_ = std::move(claims);
    }

    /// Erase v's entry from u's row only: v's row keeps its entry for u,
    /// and the edge count and degree histogram are left as they were.
    /// Requires the edge.
    static void drop_row_entry(Graph& g, NodeId u, NodeId v) {
        std::vector<NeighborEntry>& row = g.slots_[u].row;
        auto at = Graph::row_lower_bound(row, v);
        XHEAL_EXPECTS(at != row.end() && at->first == v);
        row.erase(at);
    }
};

}  // namespace xheal::graph

namespace xheal::core {

struct CloudRegistryTestAccess {
    /// The sorted row of primary colors the registry records for v.
    static std::vector<graph::ColorId>& membership_row(CloudRegistry& registry,
                                                       graph::NodeId v) {
        return registry.memberships_.at(v);
    }

    /// The registry's count of live clouds, which its directory must match.
    static std::size_t& live_clouds(CloudRegistry& registry) { return registry.live_clouds_; }
};

}  // namespace xheal::core
