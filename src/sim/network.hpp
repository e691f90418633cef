// Synchronous round-based message-passing network (the LOCAL model of the
// paper's Fig. 1), with an optional seeded fault model for lossy-network
// experiments: messages sent in round r are delivered at the start of round
// r + 1 + latency; all nodes process their inboxes in parallel; a message
// is lost with probability `drop` (decided deterministically from a
// dedicated seeded stream, in send order). The network counts every message
// sent, every message dropped and every round executed — these counters are
// the measurements behind the Theorem 5 benches.
//
// Round numbering convention (pinned by sim_test RoundConvention*):
//   - rounds_executed() is the number of COMPLETED rounds; the k-th call to
//     step() that delivers (or waits out a latency gap) executes round k.
//   - Context::round() inside a handler reports the round currently being
//     executed, i.e. the round the message is DELIVERED in (1-based).
//   - A message is "sent in round r" where r is the sender handler's
//     executing round, or r = rounds_executed() for environment posts made
//     between steps (posts before the first step are round-0 sends). It is
//     delivered in round r + 1 + latency.
//
// Storage is flat and NodeId-indexed, with no hashing on the delivery path:
//   - Handler slots: `handlers_[id]` plus a `live_[id]` byte, so has_node()
//     and the per-message dispatch are array loads.
//   - Round ring: `ring_` holds one bucket per pending round, relative to
//     `head_` (bucket head_ is due next step, head_ + latency is where
//     sends land). step() swaps the due bucket into the reused
//     `current_` buffer and advances the head, so delivered buckets come
//     back as empty buffers that keep their capacity. When the latency
//     grows past the ring, the ring is rotated to head 0 and then resized,
//     so in-flight messages keep their stamped delay.
//   - Once the slot vector and bucket capacities have grown to the
//     workload's peak, post(), step() and run() allocate nothing.
//
// add_node() must not be called from inside a handler: growing the slot
// vector would move the std::function that is executing. remove_node() is
// allowed there and takes effect when the round completes.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/message.hpp"
#include "util/expects.hpp"
#include "util/rng.hpp"

namespace xheal::sim {

class Network;

/// Scenario-configurable fault injection. `drop` is the per-message loss
/// probability in [0, 1]; `latency` is the extra integer delay in rounds on
/// top of the model's baseline one round (delivery after r + 1 + latency).
struct FaultModel {
    double drop = 0.0;
    std::size_t latency = 0;
};

/// Handed to a node's handler so it can reply; sends are delivered
/// 1 + latency rounds later.
class Context {
public:
    graph::NodeId self() const { return self_; }
    /// The round currently being executed (the delivery round of the
    /// message this handler is processing). See the numbering convention
    /// in the file header.
    std::size_t round() const;
    /// Send a message; `ack_seq != 0` requests a delivery acknowledgement
    /// from protocol handlers that honor it (see Message::ack_seq).
    void send(graph::NodeId to, int type, std::uint64_t payload = 0,
              std::uint64_t ack_seq = 0);

private:
    friend class Network;
    Context(Network& net, graph::NodeId self) : network_(net), self_(self) {}
    Network& network_;
    graph::NodeId self_;
};

/// Per-node message handler. An empty handler makes the node a sink (it
/// still receives, which counts, but does not react).
using Handler = std::function<void(const Message&, Context&)>;

class Network {
public:
    /// Register a node. Ids must be unique among live nodes. Not callable
    /// from inside a handler (see the file header).
    void add_node(graph::NodeId id, Handler handler = {});

    /// Remove a node; in-flight messages to it are dropped on delivery.
    /// Called from inside a handler, the node keeps its handler for the
    /// rest of the round and leaves when the round completes.
    void remove_node(graph::NodeId id);

    bool has_node(graph::NodeId id) const { return id < live_.size() && live_[id] != 0; }
    std::size_t node_count() const { return live_count_; }

    /// Id-compaction support: rekey every registered node through the
    /// old->new map (every registered id must map to a valid new id, and the
    /// map must be injective over them). Requires a quiescent network — no
    /// messages in flight, not inside step() — since stamped messages carry
    /// old ids. Handlers move; the drop stream, counters and fault model are
    /// untouched.
    void remap_nodes(const std::vector<graph::NodeId>& old_to_new);

    /// Configure fault injection for subsequent sends. In-flight messages
    /// keep the delivery round they were stamped with; the drop stream
    /// (seed_drop_stream) is NOT reset, so mid-run model changes stay
    /// deterministic.
    void set_fault_model(const FaultModel& model) { model_ = model; }
    const FaultModel& fault_model() const { return model_; }

    /// Seed the deterministic drop-decision stream. One coin is drawn per
    /// send while drop > 0, in send order.
    void seed_drop_stream(std::uint64_t seed) { drop_rng_ = util::Rng(seed); }

    /// Inject a message from the environment (delivered after
    /// 1 + latency step()s, unless dropped).
    void post(const Message& m);
    void post(graph::NodeId from, graph::NodeId to, int type, std::uint64_t payload = 0);

    /// Deliver one synchronous round. Returns the number of messages
    /// delivered (0 when already quiescent, in which case no round is
    /// charged; a latency gap — in-flight messages none of which are due
    /// yet — charges a round and delivers 0).
    std::size_t step();

    /// Step until quiescent or max_rounds elapsed; returns rounds executed.
    std::size_t run(std::size_t max_rounds = 1'000'000);

    bool idle() const { return in_flight_ == 0; }

    // ---- counters ----
    std::uint64_t messages_sent() const { return messages_sent_; }
    std::uint64_t messages_dropped() const { return messages_dropped_; }
    std::uint64_t rounds_executed() const { return rounds_; }

private:
    friend class Context;
    void enqueue(const Message& m);
    /// Fill the (dead) slot `id`, growing the slot vectors as needed.
    void place(graph::NodeId id, Handler handler);
    /// Kill the live slot `id`, destroying its handler.
    void erase(graph::NodeId id);

    std::vector<Handler> handlers_;    ///< by NodeId; meaningful where live_
    std::vector<std::uint8_t> live_;   ///< by NodeId; 1 = registered
    std::size_t live_count_ = 0;
    /// ring_[(head_ + i) % ring_.size()] holds the messages due i rounds
    /// after the next step()'s round: i = 0 is delivered by the next step,
    /// i = latency is where sends land.
    std::vector<std::vector<Message>> ring_;
    std::size_t head_ = 0;
    std::vector<Message> current_;     ///< the round being delivered
    std::size_t in_flight_ = 0;
    FaultModel model_;
    util::Rng drop_rng_{0x6c6f737379ull};  // "lossy"
    std::uint64_t messages_sent_ = 0;
    std::uint64_t messages_dropped_ = 0;
    std::uint64_t rounds_ = 0;
    /// Delivery-loop state: removals requested mid-round are parked here
    /// and applied when the round completes.
    bool stepping_ = false;
    std::vector<graph::NodeId> removed_mid_step_;
};

}  // namespace xheal::sim
