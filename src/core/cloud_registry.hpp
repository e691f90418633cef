// Mechanical layer of Xheal's cloud management.
//
// CloudRegistry owns all clouds, tracks node -> cloud memberships (per node,
// a sorted row of primary colors plus one secondary slot) and keeps each
// cloud's color claims in the network graph synchronized with its topology
// (creating, rebuilding, growing and shrinking clouds). Policy —
// which clouds to form, free-node selection, sharing, combining — lives in
// XhealHealer; the registry only provides safe primitives and maintains the
// structural invariants:
//
//   * a color claim on (u, v) exists iff the cloud of that color has both
//     u and v as members and its topology contains the pair;
//   * a node belongs to at most one secondary cloud (it has one slot);
//   * every cloud has >= 2 members (smaller clouds are dissolved);
//   * every cloud has a leader and (when size >= 2) a distinct vice-leader.
//
// Clouds live in a recycling arena and are found by color in O(1) through
// a directory window indexed by color (colors are issued in order and never
// reused). A cloud's claims live only in the graph; destroying a cloud
// releases them by walking its topology projection, asserting each claim.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/cloud.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace xheal::core {

class CloudRegistry {
    /// Test-only fault injection (tests/support/mutators.hpp): corrupts
    /// membership records and the live count for the oracle tests.
    friend struct CloudRegistryTestAccess;

public:
    /// d = Hamilton-cycle count of cloud expanders; kappa = 2d.
    /// rebuild_on_half_loss applies the paper's Section-5 rule that a cloud
    /// losing half its membership is reconstructed from a fresh random
    /// H-graph (disable only for the bench_ablation study).
    explicit CloudRegistry(std::size_t d, bool rebuild_on_half_loss = true);

    std::size_t d() const { return d_; }
    std::size_t kappa() const { return 2 * d_; }

    // ----- cloud lifecycle -----

    /// Create a cloud over `members` (>= 2 distinct, all present in g),
    /// claim its edges in g and register memberships. Returns its color.
    graph::ColorId create_cloud(graph::Graph& g, CloudKind kind,
                                const std::vector<graph::NodeId>& members,
                                util::Rng& rng, std::size_t* claims_added = nullptr);

    /// Remove all of the cloud's claims from g and unregister it.
    void destroy_cloud(graph::Graph& g, graph::ColorId color,
                       std::size_t* claims_removed = nullptr);

    /// Remove member v from the cloud. If `deleted_from_graph`, v's incident
    /// edges are already gone from g and only bookkeeping is purged.
    /// Dissolves the cloud if fewer than 2 members remain and returns the
    /// surviving member (invalid_node otherwise). Applies the half-loss
    /// rebuild rule and repairs the leader/vice-leader invariant.
    graph::NodeId remove_member(graph::Graph& g, graph::ColorId color, graph::NodeId v,
                                util::Rng& rng, bool deleted_from_graph,
                                std::size_t* claims_added = nullptr,
                                std::size_t* claims_removed = nullptr);

    /// Add member v (present in g) to the cloud, claim the new edges.
    void insert_member(graph::Graph& g, graph::ColorId color, graph::NodeId v,
                       util::Rng& rng, std::size_t* claims_added = nullptr,
                       std::size_t* claims_removed = nullptr);

    // ----- queries -----

    /// The live cloud of `color`, or nullptr. O(1): one bounds check and
    /// one load in the directory window.
    Cloud* find(graph::ColorId color) {
        std::size_t at = color - base_;  // wraps for colors below the window
        return at < directory_.size() ? directory_[at] : nullptr;
    }
    const Cloud* find(graph::ColorId color) const {
        std::size_t at = color - base_;
        return at < directory_.size() ? directory_[at] : nullptr;
    }
    bool exists(graph::ColorId color) const { return find(color) != nullptr; }

    /// Fills `out` (cleared first) with the colors of the primary clouds
    /// containing v, ascending; empty if none. Allocation-free once `out`
    /// has grown: the healer's hot path feeds its scratch buffer here.
    void primary_clouds_of(graph::NodeId v, std::vector<graph::ColorId>& out) const;

    /// The (unique) secondary cloud containing v, if any. O(1): v's slot.
    std::optional<graph::ColorId> secondary_cloud_of(graph::NodeId v) const {
        if (is_free(v)) return std::nullopt;
        return secondary_of_[v];
    }

    /// Free = member of no secondary cloud (paper Section 3). O(1).
    bool is_free(graph::NodeId v) const {
        return v >= secondary_of_.size() || secondary_of_[v] == graph::invalid_color;
    }

    /// Fills `out` (cleared first) with the free members of a cloud,
    /// ascending. The healer's connect_units path feeds its scratch buffers
    /// here.
    void free_members_of(graph::ColorId color, std::vector<graph::NodeId>& out) const;

    /// All live colors, ascending.
    std::vector<graph::ColorId> colors() const;

    std::size_t cloud_count() const { return live_clouds_; }

    /// Colors the directory window spans: from the oldest live color to the
    /// newest issued one (0 with no live cloud). The window's storage grows
    /// only when this span fills more than three quarters of it.
    std::size_t directory_span() const { return directory_.size() - head_; }

    /// True if v belongs to at least one cloud.
    bool in_any_cloud(graph::NodeId v) const;

    /// Verify every structural invariant against the graph; throws on
    /// violation: the scoped form below with every id in scope. Runs at
    /// every compaction and in the forensics executor's full sweeps.
    void verify(const graph::Graph& g) const;

    /// Scoped form (DESIGN.md decision 7), for `rows` ascending and
    /// duplicate-free. Every cloud named by a membership row or a secondary
    /// slot of `rows` must be live and passes the per-cloud checks (a short
    /// binary search in the member's primary row, or one compare against
    /// its secondary slot, per membership; one forward walk of row(u) per
    /// run of projection pairs at u). Two counts over the records and claims
    /// of `rows` then prove the reverse inclusions without lookups: at those
    /// rows the membership records are exactly the reached clouds' members
    /// and the claims exactly their projections. One pass over the
    /// directory visits the reached clouds and checks its own bookkeeping
    /// (window head, null slots below it, slot colors, live count), so that
    /// part is O(directory) in every form. With every membership row in
    /// scope, every live cloud must be reached.
    void verify(const graph::Graph& g, std::span<const graph::NodeId> rows) const;

    /// Id-compaction support (DESIGN.md decision 12): rewrite every live
    /// cloud and the membership table through the ascending old->new map
    /// (`live_count` = number of valid targets); each secondary slot slides
    /// with its row. Dead nodes must carry no memberships (an empty row and
    /// an empty slot); their rows' storage is retired into the pool exactly as
    /// retire_membership_row would. Pooled (destroyed) clouds hold stale ids
    /// but are fully re-initialized on revival, so only live clouds are
    /// touched. No rng draws.
    void remap_ids(const std::vector<graph::NodeId>& old_to_new,
                   std::size_t live_count);

private:
    /// Memberships and projection pair ends of the clouds verify has
    /// checked, counted only at nodes in scope.
    struct Tally {
        std::size_t records = 0;
        std::size_t claim_ends = 0;
    };

    /// The per-cloud checks of verify: members ascending, alive and
    /// registered; each projection pair joins two members and is claimed
    /// in g; leadership; bridge associations. `stamp` (one entry per
    /// membership row) marks the members; clouds must come in ascending
    /// color order. Tallies the members and pair ends that lie in scope
    /// (`in_scope`, one flag per membership row).
    Tally verify_cloud(const graph::Graph& g, const Cloud& cloud,
                       std::vector<graph::ColorId>& stamp,
                       const std::vector<std::uint8_t>& in_scope) const;

    /// Read the claims `cloud` holds in g into claims_ (cleared first):
    /// the upper half (w > u) of each live member's row, so pairs u < v,
    /// ascending. The graph is the only record of a cloud's claims.
    void read_claims(const graph::Graph& g, const Cloud& cloud);

    /// Remove every claim of `color` listed in claims_ from g.
    void release_claims(graph::Graph& g, graph::ColorId color, std::size_t* removed);

    /// Full resync: diff the cloud's topology projection against its claims
    /// in g and apply the changes. Used after mode switches and rebuilds;
    /// runs on reusable scratch (no allocation at capacity). Counts
    /// added/removed claims if requested.
    void sync_claims(graph::Graph& g, Cloud& cloud, std::size_t* added,
                     std::size_t* removed);

    /// Incremental sync: resolve the candidates of `delta_` (one splice)
    /// against the topology and the claims in g, applying only the claims
    /// that actually changed. The steady-state path — no allocation.
    void apply_splice(graph::Graph& g, Cloud& cloud, std::size_t* added,
                      std::size_t* removed);

    /// Re-establish leader and vice-leader after membership changed.
    void fix_leadership(Cloud& cloud, util::Rng& rng);

    /// Record v in `cloud`: a primary color joins v's row, a secondary
    /// color takes v's slot.
    void register_membership(graph::NodeId v, const Cloud& cloud);
    void unregister_membership(graph::NodeId v, const Cloud& cloud);
    /// v was deleted from the graph: once it has left its last primary
    /// cloud, recycle its membership row's storage for a future fresh id.
    void retire_membership_row(graph::NodeId v);

    /// Enter the freshly issued `color` into the directory window, sliding
    /// the window up to its oldest live color before its storage would grow.
    void publish(graph::ColorId color, Cloud* cloud);

    /// Unlink `color` from the directory and return its cloud to the free
    /// list; the Cloud object (and its buffer capacities) is retained for
    /// the next create_cloud.
    void release_cloud(graph::ColorId color);

    std::size_t d_;
    bool rebuild_on_half_loss_;
    graph::ColorId next_color_ = 1;  // 0 is invalid_color
    /// Cloud arena: pool_ owns every Cloud ever created (unique_ptr so Cloud
    /// pointers stay stable); destroyed clouds go onto free_clouds_ and
    /// create_cloud revives them in place, retaining the topology/bridge
    /// buffer capacities — the structural repair path allocates nothing at
    /// steady state.
    std::vector<std::unique_ptr<Cloud>> pool_;
    std::vector<Cloud*> free_clouds_;
    /// The live directory: a window of pool slots, directory_[c - base_]
    /// the live cloud of color c or nullptr once it is destroyed. Colors
    /// are issued monotonically and never reused, so registration is always
    /// a push_back and the window ascends by color. head_ is the slot of the
    /// oldest live color (everything below it is dead); publish() drops
    /// that dead prefix before the storage would grow, so the storage stays
    /// within the live color span plus slack.
    std::vector<Cloud*> directory_;
    graph::ColorId base_ = 1;  // color of directory_[0]
    std::size_t head_ = 0;
    std::size_t live_clouds_ = 0;
    /// Each (color, v) membership is stored exactly once, by cloud kind:
    /// memberships_[v] = sorted colors of the primary clouds containing v;
    /// secondary_of_[v] = the one secondary cloud containing v, or
    /// invalid_color (the paper's at-most-one-secondary invariant is the
    /// layout). Both are indexed directly by node id (ids are dense and
    /// never reused) and always have the same length. Inner vectors keep
    /// their capacity across churn, so re-registering never allocates.
    /// Rows of graph-deleted nodes are retired into membership_pool_ and
    /// re-issued to fresh ids (capped), so a churning population's first
    /// cloud registrations don't allocate either.
    static constexpr std::size_t membership_pool_cap = 256;
    std::vector<std::vector<graph::ColorId>> memberships_;
    std::vector<graph::ColorId> secondary_of_;
    std::vector<std::vector<graph::ColorId>> membership_pool_;
    // Repair-path scratch, reused across every mutation (zero steady-state
    // allocations; see DESIGN.md decision 6).
    expander::TopoDelta delta_;
    std::vector<std::pair<graph::NodeId, graph::NodeId>> desired_;
    std::vector<std::pair<graph::NodeId, graph::NodeId>> claims_;
};

}  // namespace xheal::core
