// The Xheal self-healing algorithm (paper Section 3), centralized reference
// implementation. DistributedXheal reuses this class for repair decisions
// and adds faithful LOCAL-model round/message accounting.
//
// Case structure on deletion of node v:
//   Case 1   — v belonged to no cloud (all its edges black): build one
//              primary expander cloud over its neighbors.
//   Case 2.1 — v belonged to primary clouds only: fix each primary cloud
//              (incremental expander repair), then connect one free node per
//              affected cloud — plus each black neighbor as a singleton
//              unit — with a new secondary expander cloud. Free-node
//              shortages are resolved by *sharing* (physically adding a
//              spare free node to the deficient cloud); if the affected
//              units hold fewer distinct free nodes than units, all units
//              are *combined* into one primary cloud (the amortized-costly
//              operation).
//   Case 2.2 — v was a bridge in secondary cloud F: fix the primaries, then
//              replace v's bridge role in F with a fresh free node from its
//              associated primary (sharing/combining as above), and connect
//              the primaries F does not cover as in Case 2.1, including one
//              representative unit from F's side so the two groups stay
//              connected (DESIGN.md decision 3).
//
// Batched mode (scenario `batch=k` phases): on_delete_staged performs the
// per-victim work — teardown, FixPrimary, secondary-bridge repair — but
// parks the units that would form a new secondary on a pending list;
// flush_staged dedupes the accumulated units and runs ONE connect_units for
// the whole batch, amortizing the structural splices (DESIGN.md decision 9).
// on_delete is a batch of one: the same stage, then the flush at once.
#pragma once

#include <optional>
#include <vector>

#include "core/cloud_registry.hpp"
#include "core/healer.hpp"
#include "util/rng.hpp"

namespace xheal::core {

struct XhealConfig {
    /// Hamilton cycles per expander cloud; kappa = 2d. The paper's
    /// implementation-dependent degree parameter.
    std::size_t d = 4;
    /// Seed of the healer's private randomness (hidden from the adversary).
    std::uint64_t seed = 42;
    /// Section-5 rule: reconstruct a cloud after it has lost half of its
    /// members, restoring the w.h.p. expansion guarantee. Disable only for
    /// the bench_ablation study.
    bool rebuild_on_half_loss = true;
};

/// One structural operation performed during a repair. DistributedXheal
/// replays these as LOCAL-model protocol phases with faithful round and
/// message accounting (paper Section 5).
struct HealEvent {
    enum class Kind {
        fix_cloud,         ///< incremental expander repair after member loss
        dissolve_cloud,    ///< cloud fell below 2 members
        create_primary,    ///< new primary expander built by a leader
        create_secondary,  ///< new secondary expander among bridge nodes
        insert_member,     ///< H-graph INSERT (sharing / bridge replacement)
        combine,           ///< costly merge of several clouds into one
    };
    Kind kind;
    graph::ColorId color = graph::invalid_color;
    std::vector<graph::NodeId> members;  ///< creation/combine: full member list
    bool leader_was_deleted = false;     ///< fix_cloud: leader handover needed
    bool rebuilt = false;                ///< fix_cloud: half-loss reconstruction
};

class XhealHealer : public Healer {
public:
    explicit XhealHealer(XhealConfig config = {});

    std::string_view name() const override { return "xheal"; }
    RepairReport on_delete(graph::Graph& g, graph::NodeId v) override;
    RepairReport on_delete_staged(graph::Graph& g, graph::NodeId v) override;
    RepairReport flush_staged(graph::Graph& g) override;
    std::size_t staged_count() const override { return pending_units_.size(); }
    void on_compact(graph::Graph& g,
                    const std::vector<graph::NodeId>& old_to_new) override;
    void check_consistency(const graph::Graph& g) const override;
    void check_consistency(const graph::Graph& g,
                           std::span<const graph::NodeId> rows) const override;

    const CloudRegistry& registry() const { return registry_; }
    std::size_t kappa() const { return registry_.kappa(); }
    const XhealConfig& config() const { return config_; }

    /// Structural operations of the most recent on_delete / on_delete_staged
    /// / flush_staged call, in order (on_delete's hold its stage and its
    /// flush).
    const std::vector<HealEvent>& last_events() const { return events_; }

private:
    /// One "side" that a secondary cloud must connect: either an existing
    /// primary cloud or a lone node (black neighbor / dissolved-cloud
    /// survivor, treated as a singleton primary cloud per the paper).
    struct Unit {
        graph::ColorId cloud = graph::invalid_color;
        graph::NodeId singleton = graph::invalid_node;

        bool is_cloud() const { return cloud != graph::invalid_color; }
        static Unit of_cloud(graph::ColorId c) { return Unit{c, graph::invalid_node}; }
        static Unit of_node(graph::NodeId n) { return Unit{graph::invalid_color, n}; }
    };

    /// Outcome of repairing secondary cloud F after bridge v was removed.
    /// Reused across repairs (the vector keeps its capacity).
    struct SecondaryFix {
        /// Primary colors still connected through F (excluded from the new
        /// secondary built for the leftover clouds). Sorted ascending.
        std::vector<graph::ColorId> connected;
        /// A unit on F's side to include in the new secondary so both
        /// groups stay connected; nullopt if F's side offers no free node.
        std::optional<Unit> representative;
        /// If no representative exists but F is alive, new bridges are
        /// INSERTed into F itself instead of forming a new secondary.
        graph::ColorId insert_into = graph::invalid_color;

        void clear() {
            connected.clear();
            representative.reset();
            insert_into = graph::invalid_color;
        }
    };

    /// The per-victim repair: the units a new secondary would connect are
    /// appended to pending_units_ for the next flush.
    void repair(graph::Graph& g, graph::NodeId v, RepairReport& report);

    /// Connect the pending units with one secondary and clear the list; the
    /// shared step of on_delete and flush_staged.
    void flush_pending(graph::Graph& g, RepairReport& report);

    void fix_secondary(graph::Graph& g, graph::ColorId f_color,
                       graph::ColorId assoc_of_v, RepairReport& report,
                       SecondaryFix& fix);

    /// Pick a free node to serve as cloud Ci's bridge: a free member of Ci,
    /// else a free node shared from one of `donor_clouds` (physically added
    /// to Ci), else invalid_node (combine required).
    graph::NodeId pick_free_node(graph::Graph& g, graph::ColorId ci,
                                 const std::vector<graph::ColorId>& donor_clouds,
                                 RepairReport& report);

    /// Connect `units` with a secondary cloud (or into an existing one),
    /// applying free-node assignment, sharing and the combine fallback.
    void connect_units(graph::Graph& g, const std::vector<Unit>& units,
                       graph::ColorId into_secondary, RepairReport& report);

    /// Merge all units into a single fresh primary cloud. Returns its color.
    graph::ColorId combine_units(graph::Graph& g, const std::vector<Unit>& units,
                                 RepairReport& report);

    /// Drop duplicate units, dead clouds, and singletons already covered by
    /// a cloud unit in the list. In place, on reusable scratch.
    void dedupe_units_inplace(std::vector<Unit>& units);

    /// Remove v from cloud `c` recording fix/dissolve events and rebuild
    /// accounting; returns the dissolved cloud's survivor (or invalid_node).
    graph::NodeId remove_member_logged(graph::Graph& g, graph::ColorId c,
                                       graph::NodeId v, RepairReport& report);

    /// insert_member wrapper that records the event.
    void insert_member_logged(graph::Graph& g, graph::ColorId c, graph::NodeId w,
                              RepairReport& report);

    /// Live primary colors bridged by f, sorted + deduped into `out`.
    void live_assocs_of(const Cloud& f, std::vector<graph::ColorId>& out) const;

    /// Append a new event, its members vector drawn from the recycling pool
    /// — the caller fills members/flags via the returned reference before
    /// the next push.
    HealEvent& push_event(HealEvent::Kind kind, graph::ColorId color);

    /// Return every event's members vector to the pool and clear the list;
    /// called at the start of each repair entry point (never between
    /// on_delete's stage and flush) so steady-state event logging performs
    /// no allocation.
    void recycle_events();

    std::vector<graph::NodeId> take_members();

    XhealConfig config_;
    CloudRegistry registry_;
    util::Rng rng_;
    std::vector<HealEvent> events_;
    std::vector<std::vector<graph::NodeId>> member_pool_;

    // Units parked by the stage step until the flush.
    std::vector<Unit> pending_units_;

    // Repair-path scratch, reused across on_delete calls so the common
    // steady-state repair (fix one cloud, nothing structural) performs no
    // heap allocation (DESIGN.md decision 6). The connect_units/combine
    // scratch below extends that guarantee to the structural path
    // (decision 9) — pinned by connect_units_soak_test at 0 allocations.
    std::vector<graph::ColorId> prim_;        ///< v's primary clouds
    std::vector<graph::NodeId> black_nbrs_;   ///< v's purely-black neighbors
    std::vector<graph::NodeId> survivors_;    ///< remnants of dissolved 2-clouds
    std::vector<Unit> units_;                 ///< units the new secondary connects
    std::vector<Unit> units_tmp_;             ///< dedupe staging
    std::vector<graph::ColorId> seen_clouds_; ///< dedupe: cloud units listed
    std::vector<graph::NodeId> seen_nodes_;   ///< dedupe: singleton units listed
    SecondaryFix secfix_;                     ///< Case 2.2 outcome
    std::vector<graph::ColorId> assocs_;      ///< live_assocs scratch
    std::vector<graph::ColorId> donors_;      ///< pick_free_node donor list
    std::vector<Unit> fix_to_combine_;        ///< Case 2.2 combine fallback
    std::vector<graph::NodeId> free_scratch_; ///< free_members_of staging
    // connect_units scratch (sorted flat vectors mirror the former std::set
    // iteration order, keeping the rng draw sequence bit-identical):
    std::vector<std::vector<graph::NodeId>> cu_candidates_;  ///< per-unit free nodes
    std::vector<graph::NodeId> all_free_;     ///< distinct free nodes, ascending
    std::vector<std::size_t> order_;          ///< units by candidate scarcity
    std::vector<graph::NodeId> taken_;        ///< assigned free nodes, ascending
    std::vector<graph::NodeId> assigned_;     ///< unit index -> free node
    std::vector<std::size_t> deficient_;      ///< units with no open candidate
    std::vector<graph::NodeId> open_;         ///< unassigned candidates of a unit
    std::vector<graph::NodeId> spares_;       ///< unassigned free nodes overall
    std::vector<std::pair<graph::NodeId, graph::ColorId>> bridges_;  ///< node, assoc
    std::vector<graph::NodeId> bridge_nodes_; ///< bridge ids for create_cloud
    std::vector<graph::NodeId> pair_members_; ///< share-into-singleton pair
    // combine_units scratch:
    std::vector<graph::NodeId> comb_members_;   ///< merged membership, ascending
    std::vector<graph::ColorId> comb_destroyed_;///< clouds merged away, ascending
    /// (secondary, member) pairs of the merged members that are bridges
    std::vector<std::pair<graph::ColorId, graph::NodeId>> foreign_;
    std::vector<graph::NodeId> stale_;          ///< bridges freed by the merge
};

}  // namespace xheal::core
