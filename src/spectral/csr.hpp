// Compressed-sparse-row snapshot of the slot graph for the sparse probe
// layer. The slot-indexed Graph is optimized for mutation under churn; the
// probes (Lanczos matvecs, BFS sweeps) want a frozen, densely renumbered
// adjacency in two flat arrays so every traversal is a contiguous scan with
// no per-node indirection. A CsrGraph is rebuilt from the live graph per
// probe via build(), which only reuses and never shrinks its buffers —
// repeated probes over a scenario run perform no steady-state allocations
// once the population peak has been seen.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace xheal::spectral {

class CsrGraph {
public:
    /// Dense index marking "id is not a live node of the snapshot".
    static constexpr std::uint32_t npos = static_cast<std::uint32_t>(-1);

    /// Snapshot g's live nodes and edges. Buffers are reused across calls.
    void build(const graph::Graph& g);

    /// Patch the snapshot in place to match g, given the sorted, unique list
    /// of node ids whose adjacency or liveness changed since the snapshot
    /// was last built or patched (the Graph structure journal, deduped).
    /// Clean rows are renumbered by copy, dirty rows are rebuilt from g;
    /// the resulting arrays are byte-identical to a fresh build(g). Returns
    /// false — snapshot untouched — when the delta violates the append-only
    /// id assumption (an id materialized inside the snapshot's id range via
    /// add_node_with_id) and the caller must build() from scratch.
    bool patch(const graph::Graph& g, const std::vector<graph::NodeId>& dirty);

    std::size_t size() const { return nodes_.size(); }
    std::size_t edge_count() const { return targets_.size() / 2; }

    /// Live node ids in ascending order; the i-th entry is dense index i.
    const std::vector<graph::NodeId>& nodes() const { return nodes_; }

    /// Dense index of a node id, or npos if the id is not a live node of
    /// the snapshot (dead, gap, or beyond the snapshot's id range).
    std::uint32_t index_of(graph::NodeId v) const {
        return v < position_.size() ? position_[v] : npos;
    }

    std::size_t degree(std::uint32_t i) const { return offsets_[i + 1] - offsets_[i]; }

    /// Neighbors of dense index i, as dense indices.
    std::span<const std::uint32_t> row(std::uint32_t i) const {
        return {targets_.data() + offsets_[i], targets_.data() + offsets_[i + 1]};
    }

    /// y = L_norm * x where L_norm = I - D^{-1/2} A D^{-1/2} is the
    /// normalized Laplacian of the snapshot. x and y must have size() entries.
    ///
    /// Blocked kernel: the apply first forms z = D^{-1/2} x into `scaled`
    /// (one contiguous, trivially vectorizable pass), then accumulates z
    /// over each adjacency row through four independent accumulators, so
    /// the gather loop carries no serial dependency chain and the edge pass
    /// touches one array instead of two. The summation order is fixed by
    /// the snapshot layout — never by thread count — so probe values are
    /// identical inline and off-thread. `scaled` is caller-owned scratch
    /// (resized here, reused across applies by the probe engine).
    void apply_normalized_laplacian(const std::vector<double>& x, std::vector<double>& y,
                                    std::vector<double>& scaled) const;

    /// The unit-norm kernel vector D^{1/2} 1 of the normalized Laplacian,
    /// written into `out` (resized). Empty when the total degree is zero.
    void normalized_kernel(std::vector<double>& out) const;

    // Raw array views for the patch-vs-rebuild property tests.
    const std::vector<std::uint32_t>& offsets() const { return offsets_; }
    const std::vector<std::uint32_t>& targets() const { return targets_; }
    const std::vector<double>& inv_sqrt_degrees() const { return inv_sqrt_deg_; }

private:
    std::vector<graph::NodeId> nodes_;
    std::vector<std::uint32_t> position_;  // id -> dense index or npos
    std::vector<std::uint32_t> offsets_;   // size() + 1
    std::vector<std::uint32_t> targets_;   // 2 * edge_count(), dense indices
    std::vector<double> inv_sqrt_deg_;
    // patch() scratch: double buffers and the old->new renumbering. Reused
    // across patches so steady-state patching allocates nothing at capacity.
    std::vector<graph::NodeId> nodes_scratch_;
    std::vector<std::uint32_t> targets_scratch_;
    std::vector<std::uint32_t> offsets_old_;
    std::vector<std::uint32_t> old_to_new_;
    std::vector<std::uint8_t> row_state_;
    std::vector<graph::NodeId> added_;
};

}  // namespace xheal::spectral
