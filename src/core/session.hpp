// HealingSession drives the insert/delete/repair loop of the paper's model
// (Fig. 1): it owns the healed graph G_t, maintains the insert-only
// reference graph G'_t (original nodes + adversarial insertions, deletions
// ignored), applies adversary events and invokes the healer, accumulating
// repair accounting and the A(p) statistic of Lemma 5.
#pragma once

#include <memory>
#include <vector>

#include "core/healer.hpp"
#include "graph/graph.hpp"
#include "util/stats.hpp"

namespace xheal::core {

class HealingSession {
public:
    /// Takes ownership of the healer. `initial` becomes both G_0 and G'_0.
    HealingSession(graph::Graph initial, std::unique_ptr<Healer> healer);

    /// The healed graph G_t.
    const graph::Graph& current() const { return g_; }
    /// The insert-only reference graph G'_t (deleted nodes remain).
    const graph::Graph& reference() const { return ref_; }

    Healer& healer() { return *healer_; }
    const Healer& healer() const { return *healer_; }

    /// Adversary inserts a node attached (with black edges) to `neighbors`,
    /// which must all be alive. Returns the new node's id (identical in G
    /// and G').
    graph::NodeId insert_node(const std::vector<graph::NodeId>& neighbors);

    /// Adversary deletes alive node v; the healer repairs. Returns the
    /// repair accounting.
    RepairReport delete_node(graph::NodeId v);

    /// Batched variant: delete v but let the healer defer its global
    /// reconnection work until flush_staged() (Healer::on_delete_staged).
    /// Every staged run must be terminated by a flush before the graph is
    /// observed.
    RepairReport stage_delete(graph::NodeId v);

    /// Complete the repair work deferred by stage_delete. Safe to call with
    /// nothing staged (no-op report).
    RepairReport flush_staged();

    /// Turn on the structure journals of both graphs (current + reference)
    /// with the given overflow limit, for incremental probe snapshots.
    void enable_graph_journals(std::size_t limit) {
        g_.set_journal_limit(limit);
        ref_.set_journal_limit(limit);
    }

    /// Id-compaction epoch (DESIGN.md decision 12). Purges graph-deleted
    /// nodes out of the reference graph (their G' degrees were consumed by
    /// the A(p) statistic at deletion time; the reference-edge guarantee
    /// only covers edges between survivors), then remaps the live ids of
    /// both graphs densely via the shared ascending map, rebuilds the alive
    /// pool, notifies the healer (Healer::on_compact) and re-validates the
    /// claim mirror + reference-edge invariants on the renumbered graphs.
    /// Requires a fully healed graph: no staged deletions pending. Returns
    /// the applied old->new map (owned scratch, valid until the next
    /// compact) so probe engines can permute warm-start state.
    const std::vector<graph::NodeId>& compact();

    std::size_t deletions() const { return deletions_; }
    std::size_t insertions() const { return insertions_; }
    const RepairReport& totals() const { return totals_; }

    /// A(p) of Lemma 5: average black-degree (degree in G'_t at deletion
    /// time) of the deleted nodes. The best-possible amortized message cost.
    double average_deleted_black_degree() const { return deleted_black_degree_.mean(); }

    /// Amortized messages per deletion (distributed healers; 0 otherwise).
    double amortized_messages() const;

    /// Incrementally-maintained pool of alive node ids, in arbitrary (but
    /// deterministic) order. O(1) per insert/delete to keep current; the
    /// sampling substrate for adversary strategies — no per-pick
    /// materialization. Ordered traversals should use current().nodes().
    const std::vector<graph::NodeId>& alive_pool() const { return alive_; }

private:
    graph::Graph g_;
    graph::Graph ref_;
    std::unique_ptr<Healer> healer_;
    RepairReport totals_;
    std::size_t deletions_ = 0;
    std::size_t insertions_ = 0;
    util::RunningStats deleted_black_degree_;
    // Swap-remove pool: alive_[pool_pos_[v]] == v for every alive v.
    std::vector<graph::NodeId> alive_;
    std::vector<std::size_t> pool_pos_;
    // Compaction scratch: the old->new map of the latest epoch, reused so
    // steady-state compaction allocates nothing once grown.
    std::vector<graph::NodeId> compact_map_;
};

}  // namespace xheal::core
