// Self-healing algorithm interface (the "repair" step of the node insert,
// delete and network repair model, Fig. 1 of the paper).
//
// A Healer is driven by a HealingSession: after the adversary inserts a node
// (with its black edges already placed) the session calls on_insert; when
// the adversary deletes node v the session calls on_delete with v still
// present so the healer can observe the edges being destroyed — the healer
// removes v itself and then adds/drops edges to repair.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string_view>

#include "graph/graph.hpp"

namespace xheal::core {

/// Accounting for one repair, used by the benches.
struct RepairReport {
    std::size_t edges_added = 0;      ///< color claims added to the graph
    std::size_t edges_removed = 0;    ///< color claims removed from the graph
    std::size_t clouds_touched = 0;   ///< clouds repaired, created or destroyed
    std::size_t combines = 0;         ///< costly combine operations triggered
    std::size_t combine_members = 0;  ///< total membership of combined clouds
    std::size_t rebuilds = 0;         ///< half-loss expander reconstructions
    std::size_t messages = 0;         ///< distributed only: messages exchanged
    std::size_t rounds = 0;           ///< distributed only: synchronous rounds
    std::size_t retries = 0;          ///< distributed only: re-sends forced by loss

    void accumulate(const RepairReport& other) {
        edges_added += other.edges_added;
        edges_removed += other.edges_removed;
        clouds_touched += other.clouds_touched;
        combines += other.combines;
        combine_members += other.combine_members;
        rebuilds += other.rebuilds;
        messages += other.messages;
        rounds += other.rounds;
        retries += other.retries;
    }
};

/// A phase's network faults (scenario keys `drop=` / `latency=`). An unset
/// field means lossless: no drops, no extra latency.
struct NetFaults {
    std::optional<double> drop;
    std::optional<std::size_t> latency;
};

class Healer {
public:
    virtual ~Healer() = default;

    virtual std::string_view name() const = 0;

    /// Node v was inserted by the adversary; its black edges are already in
    /// g. Most healers (including Xheal) take no action on insertion.
    virtual void on_insert(graph::Graph& g, graph::NodeId v) {
        (void)g;
        (void)v;
    }

    /// The adversary deletes v. Called with v still present in g; the
    /// implementation must remove v (dropping all its edges) and may then
    /// add or remove edges to repair. Returns repair accounting.
    virtual RepairReport on_delete(graph::Graph& g, graph::NodeId v) = 0;

    /// Batched deletion (the scenario grammar's `batch=k` phases): delete v
    /// and perform the local part of the repair now, but allow the global
    /// reconnection work to be deferred until flush_staged(). Healers with
    /// no batch support fall back to full per-event repair, which keeps the
    /// batched schedule correct (just unamortized).
    virtual RepairReport on_delete_staged(graph::Graph& g, graph::NodeId v) {
        return on_delete(g, v);
    }

    /// Complete any repair work deferred by on_delete_staged. Called at
    /// batch boundaries; must leave the graph exactly as healed as the
    /// unbatched path would. Default: nothing was deferred.
    virtual RepairReport flush_staged(graph::Graph& g) {
        (void)g;
        return {};
    }

    /// Number of deletions whose reconnection work is currently deferred
    /// (staged by on_delete_staged, not yet flushed). The session's
    /// compaction guard asserts this is zero — compacting with parked
    /// repair units would renumber ids out from under them. Default: a
    /// healer that never defers has nothing staged.
    virtual std::size_t staged_count() const { return 0; }

    /// Id-compaction epoch (DESIGN.md decision 12): the session renumbered
    /// the live node ids through the ascending dense map `old_to_new`
    /// (indexed by old id; invalid_node marks a retired id). The graphs are
    /// already rewritten when this fires; implementations remap any
    /// id-bearing internal state (cloud registries, mailbox keys). Only
    /// ever called on a fully healed graph — no staged repairs, no
    /// in-flight messages. Must not draw from any rng stream: compaction is
    /// a pure renumbering and replay depends on the draw sequence being
    /// untouched. Default: stateless healers have nothing to remap.
    virtual void on_compact(graph::Graph& g,
                            const std::vector<graph::NodeId>& old_to_new) {
        (void)g;
        (void)old_to_new;
    }

    /// Optional deep self-check (registry/claims consistency). Throws on
    /// violation. Default: no internal state to check.
    virtual void check_consistency(const graph::Graph& g) const { (void)g; }

    /// Scoped self-check: only the state the rows in `rows` reach
    /// (ascending, duplicate-free; core::InvariantSuite's scoped form).
    /// Default: the full check, which is always sound.
    virtual void check_consistency(const graph::Graph& g,
                                   std::span<const graph::NodeId> rows) const {
        (void)rows;
        check_consistency(g);
    }

    /// Scenario phase entry hook: apply (or clear, when fields are unset)
    /// network fault-injection overrides. Only message-passing healers have
    /// a network; the default is a no-op.
    virtual void set_network_faults(const NetFaults& faults) { (void)faults; }
};

}  // namespace xheal::core
