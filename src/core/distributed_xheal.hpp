// Distributed implementation of Xheal (paper Section 5).
//
// Repair decisions are computed by the embedded XhealHealer — in the paper,
// too, a cloud's randomly elected leader *locally* constructs the H-graph
// and informs members directly (NoN addressing) — while every communication
// phase of the protocol is replayed through a synchronous LOCAL-model
// network with real messages and rounds:
//
//   1. deletion notices to the deleted node's neighbors;
//   2. per affected cloud, H-graph DELETE splice repairs (O(kappa) msgs,
//      O(1) rounds), leader handover broadcasts when the leader died, and
//      full topology re-installs after half-loss rebuilds;
//   3. per new cloud, an O(log k)-round tournament leader election followed
//      by the leader installing the topology (O(kappa * k) messages);
//   4. per H-graph INSERT (sharing / bridge replacement), the O(1)
//      leader-query protocol;
//   5. per combine, a handler-driven BFS flood + convergecast over the
//      combined cloud's expander edges (O(log n) rounds, O(kappa * total)
//      messages) — the costly amortized operation. The flood runs through
//      the resident per-node handler, installed once at attach time: a
//      `flood` arriving while a combine is active is routed to on_flood,
//      which walks a CSR adjacency of the combined cloud built for that
//      combine. No handler is swapped in or out.
//
// Lossy networks: the backend accepts a fault model (per-message drop
// probability + integer latency, see sim::FaultModel) through
// set_network_faults and hardens every phase with an ack + timeout +
// bounded-retry protocol: batch sends carry sequence numbers, receivers
// acknowledge, and the healer re-posts unacked messages once the network
// drains, up to kMaxRetries attempts per message.
// Because repair *decisions* are leader-local (the embedded XhealHealer),
// loss and latency change only the message/round/retry bill — a lossy run
// converges to the byte-identical repaired graph of its lossless twin. The
// lossless path stays on the historical fast path (no acks, no extra
// messages), so perfect-delivery counts are unchanged.
//
// The network's message and round counters feed the Theorem 5 benches.
#pragma once

#include "core/xheal_healer.hpp"
#include "sim/network.hpp"

namespace xheal::core {

class DistributedXheal : public Healer {
public:
    explicit DistributedXheal(XhealConfig config = {});

    std::string_view name() const override { return "xheal-dist"; }
    void on_insert(graph::Graph& g, graph::NodeId v) override;
    RepairReport on_delete(graph::Graph& g, graph::NodeId v) override;
    void on_compact(graph::Graph& g,
                    const std::vector<graph::NodeId>& old_to_new) override;
    void check_consistency(const graph::Graph& g) const override;
    void check_consistency(const graph::Graph& g,
                           std::span<const graph::NodeId> rows) const override;
    void set_network_faults(const NetFaults& faults) override;

    const XhealHealer& inner() const { return inner_; }
    const CloudRegistry& registry() const { return inner_.registry(); }
    std::size_t kappa() const { return inner_.kappa(); }
    const sim::Network& network() const { return net_; }
    /// Mutable access for protocol tests that inject messages between
    /// repairs; the network must be drained again before the next repair.
    sim::Network& network() { return net_; }

private:
    void ensure_attached(const graph::Graph& g);
    bool lossy() const { return net_.fault_model().drop > 0.0; }

    /// The per-node handler, installed once per node: collects acks into
    /// acked_, answers ack-requesting messages and, while a combine is
    /// active, hands floods to on_flood. A no-op on every other
    /// lossless-path message, so perfect-delivery counts match the
    /// historical sink behavior.
    sim::Handler protocol_handler();

    /// First flood receipt at a member of the combining cloud: forward the
    /// wave to the member's other cloud neighbors and convergecast its
    /// address to the sender (its BFS parent).
    void on_flood(const sim::Message& m, sim::Context& ctx);

    /// Reserve `n` fresh ack sequence numbers; returns the first.
    std::uint64_t take_seqs(std::size_t n);

    /// Local index of `v` in the active combine, or kNotMember.
    static constexpr std::uint32_t kNotMember = ~std::uint32_t{0};
    std::uint32_t member_index(graph::NodeId v) const {
        return v < local_.size() && local_[v].epoch == combine_epoch_ ? local_[v].index
                                                                      : kNotMember;
    }

    /// Post `batch` and drain the network. Lossless: plain post + run (one
    /// delivery round per latency hop, exactly the historical cost). Lossy:
    /// each message carries a fresh ack_seq; unacked messages are re-posted
    /// (billed as retries) up to the retry budget.
    void deliver_reliably(const std::vector<sim::Message>& batch);

    // Protocol phases; each posts real messages and steps the network.
    void phase_deletion_notice(graph::NodeId v, const std::vector<graph::NodeId>& nbrs);
    void phase_fix_cloud(const HealEvent& event);
    void phase_create_cloud(const HealEvent& event);
    void phase_insert_member(const HealEvent& event);
    void phase_dissolve(const HealEvent& event);
    void phase_combine(const HealEvent& event);

    /// Tournament election over `candidates`: ceil(log2 k) rounds, k-1
    /// messages. Returns the winner (lowest surviving index).
    graph::NodeId run_tournament(const std::vector<graph::NodeId>& candidates);

    /// Leader installs the cloud's current topology: two messages per edge
    /// (one to each endpoint), one round — the paper's O(kappa*k) install.
    void install_topology(graph::ColorId color);

    /// Max re-sends per message before giving up.
    static constexpr std::size_t kMaxRetries = 8;

    XhealHealer inner_;
    sim::Network net_;
    bool attached_ = false;
    // Reliable-delivery state, reset per repair. Seqs are dense from 1, so
    // acked_[seq] is a flat flag table covering [0, next_seq_).
    std::uint64_t next_seq_ = 1;
    std::vector<std::uint8_t> acked_ = std::vector<std::uint8_t>(1, 0);
    std::size_t retries_accum_ = 0;

    // Combine BFS state (phase_combine / on_flood). Members of the combining
    // cloud get local indices 0..k-1 through an epoch-stamped NodeId table;
    // the cloud's adjacency is a CSR over local indices, in for_each_pair
    // order per member; parent_[i] is member i's BFS parent, or
    // graph::invalid_node while unvisited.
    struct LocalSlot {
        std::uint64_t epoch = 0;
        std::uint32_t index = 0;
    };
    struct Converge {
        graph::NodeId child;
        graph::NodeId parent;
        std::uint64_t seq;
    };
    bool combine_active_ = false;
    std::uint64_t combine_epoch_ = 0;
    std::vector<LocalSlot> local_;          ///< by NodeId
    std::vector<std::uint32_t> adj_start_;  ///< CSR offsets, size k + 1
    std::vector<graph::NodeId> adj_;        ///< CSR neighbor lists
    std::vector<graph::NodeId> parent_;     ///< by local index
    std::vector<Converge> converges_;       ///< lossy convergecasts to re-send
};

}  // namespace xheal::core
