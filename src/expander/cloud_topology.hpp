// Topology backing one expander cloud.
//
// Per the paper (Algorithm 3.2), a cloud with at most kappa+1 members is a
// clique; larger clouds are kappa-regular expanders, realized here as the
// Law-Siu random H-graph with kappa = 2d. The topology switches
// representation automatically as membership crosses the threshold, and
// tracks how much it has shrunk since the last full (re)construction so the
// owner can apply the paper's rebuild-after-half-loss rule (Section 5),
// which restores the w.h.p. expansion guarantee after many deletions.
//
// Mutations can report what they did to the simple-graph projection
// (TopoDelta) so the claim layer syncs incrementally: splices in H-graph
// mode and single-node clique changes list their touched pairs; anything
// that rewires the whole cloud (fresh construction, clique<->H-graph mode
// switch, rebuild) sets `full_resync` instead. The membership is a sorted
// vector, so steady-state churn never allocates once capacities have grown
// to the cloud's peak size.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "expander/hgraph.hpp"
#include "util/expects.hpp"

namespace xheal::expander {

/// Claim-level report of one topology mutation; see HGraph::SpliceDelta for
/// the candidate semantics. When `full_resync` is set the candidate lists
/// are meaningless and the owner must re-diff the whole projection.
struct TopoDelta {
    HGraph::SpliceDelta splice;
    bool full_resync = false;

    void clear() {
        splice.clear();
        full_resync = false;
    }
};

class CloudTopology {
public:
    enum class Mode { clique, hgraph };

    /// Build over `members` (distinct, non-empty) with Hamilton-cycle count
    /// d >= 1 (kappa = 2d).
    CloudTopology(std::vector<graph::NodeId> members, std::size_t d, util::Rng& rng);

    /// Re-initialize in place over a new member set, reusing the member
    /// buffer and any retained H-graph storage (the pooled-cloud path).
    /// Consumes exactly the rng draws the constructor would.
    void reset(const std::vector<graph::NodeId>& members, std::size_t d,
               util::Rng& rng);

    Mode mode() const { return hgraph_active_ ? Mode::hgraph : Mode::clique; }
    std::size_t size() const { return members_.size(); }
    std::size_t kappa() const { return 2 * d_; }
    bool contains(graph::NodeId u) const {
        return std::binary_search(members_.begin(), members_.end(), u);
    }
    /// Members ascending; a reference into the topology (no copy).
    const std::vector<graph::NodeId>& members() const { return members_; }

    /// Add a member. Incremental H-graph INSERT when in expander mode; a
    /// clique crossing the kappa+1 threshold is rebuilt as a fresh H-graph.
    void insert(graph::NodeId u, util::Rng& rng, TopoDelta* delta = nullptr);

    /// Remove a member. Incremental H-graph DELETE; drops back to clique
    /// mode at the threshold. Requires contains(u) and size() >= 2.
    void remove(graph::NodeId u, util::Rng& rng, TopoDelta* delta = nullptr);

    /// True once the membership has fallen below half of its size at the
    /// last full construction (the paper's amortized rebuild trigger).
    bool needs_rebuild() const;

    /// Fresh random construction over the current members; resets the
    /// rebuild trigger. In H-graph mode the cycles are reshuffled in place
    /// (no allocation).
    void rebuild(util::Rng& rng);

    /// Id-compaction support: rewrite the membership through the ascending
    /// old->new map. The sorted member list stays sorted (monotone map); a
    /// retained-but-inactive H-graph holds stale members and is fully
    /// re-assigned on the next upshift, so only an *active* H-graph is
    /// remapped. No rng draws.
    void remap_ids(const std::vector<graph::NodeId>& old_to_new) {
        for (graph::NodeId& u : members_) {
            XHEAL_EXPECTS(u < old_to_new.size() &&
                          old_to_new[u] != graph::invalid_node);
            u = old_to_new[u];
        }
        if (hgraph_active_) hgraph_->remap_ids(old_to_new);
    }

    /// True if the simple-graph projection contains edge (a, b).
    bool has_edge(graph::NodeId a, graph::NodeId b) const {
        if (hgraph_active_) return hgraph_->has_adjacency(a, b);
        return a != b && contains(a) && contains(b);
    }

    /// Simple-graph projection of the cloud's internal edges (sorted pairs,
    /// u < v) — the set of color claims the cloud holds — into a caller
    /// scratch buffer (cleared first). No allocation at capacity.
    void collect_edges(std::vector<std::pair<graph::NodeId, graph::NodeId>>& out) const;

    /// Visit each projection pair once as f(u, v), u < v, in ascending
    /// (u, v) order: the order collect_edges() lists. No allocation.
    template <typename F>
    void for_each_pair(F&& f) const {
        if (hgraph_active_) {
            hgraph_->for_each_pair(f);
            return;
        }
        for (std::size_t i = 0; i < members_.size(); ++i)
            for (std::size_t j = i + 1; j < members_.size(); ++j) f(members_[i], members_[j]);
    }

private:
    void construct(util::Rng& rng);

    std::size_t d_;
    std::vector<graph::NodeId> members_;  // sorted ascending
    /// Engaged once the cloud has ever been in H-graph mode; retained (for
    /// its buffers) across downshifts to clique mode and pooled reuse, so
    /// mode is tracked by hgraph_active_, not engagement.
    std::optional<HGraph> hgraph_;
    bool hgraph_active_ = false;  // true iff mode() == hgraph
    std::size_t size_at_construction_ = 0;
};

}  // namespace xheal::expander
