// Synchronous round-based message-passing network (the LOCAL model of the
// paper's Fig. 1), with an optional seeded fault model for lossy-network
// experiments: messages sent in round r are delivered at the start of round
// r + 1 + latency; all nodes process their inboxes in parallel; a faultable
// message is lost with probability `drop` (decided deterministically from a
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
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/message.hpp"
#include "util/expects.hpp"
#include "util/rng.hpp"

namespace xheal::sim {

class Network;

/// Scenario-configurable fault injection. `drop` is the per-message loss
/// probability in [0, 1]; `latency` is the extra integer delay in rounds on
/// top of the model's baseline one round (delivery after r + 1 + latency).
/// Control posts (post_control) bypass both knobs.
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
    void send(graph::NodeId to, int type, std::vector<std::uint64_t> payload = {},
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
    /// Register a node. Ids must be unique among live nodes.
    void add_node(graph::NodeId id, Handler handler = {});

    /// Remove a node; in-flight messages to it are dropped on delivery.
    void remove_node(graph::NodeId id);

    bool has_node(graph::NodeId id) const { return handlers_.contains(id); }
    std::size_t node_count() const { return handlers_.size(); }

    /// Id-compaction support: rekey every registered node through the
    /// old->new map (every registered id must map to a valid new id, and the
    /// map must be injective over them). Requires a quiescent network — no
    /// messages in flight, not inside step() — since stamped messages carry
    /// old ids. Handlers move; the drop stream, counters and fault model are
    /// untouched.
    void remap_nodes(const std::vector<graph::NodeId>& old_to_new);

    /// Replace a node's handler. Safe to call from inside a handler
    /// (including node `id`'s own executing handler): the swap is deferred
    /// until the current step()'s delivery loop completes, so the live
    /// std::function is never destroyed mid-call and every message of the
    /// current round is processed by the round's original handlers.
    void set_handler(graph::NodeId id, Handler handler);

    /// Configure fault injection for subsequent sends. In-flight messages
    /// keep the delivery round they were stamped with; the drop stream
    /// (seed_drop_stream) is NOT reset, so mid-run model changes stay
    /// deterministic.
    void set_fault_model(const FaultModel& model) { model_ = model; }
    const FaultModel& fault_model() const { return model_; }

    /// Seed the deterministic drop-decision stream. One coin is drawn per
    /// faultable send while drop > 0, in send order.
    void seed_drop_stream(std::uint64_t seed) { drop_rng_ = util::Rng(seed); }

    /// Inject a message from the environment (delivered after
    /// 1 + latency step()s, unless dropped).
    void post(Message m);
    void post(graph::NodeId from, graph::NodeId to, int type,
              std::vector<std::uint64_t> payload = {});

    /// Fault-immune post: delivered next step(), never dropped. Models the
    /// failure detector / deletion-notice channel of the paper's model
    /// (Fig. 1: neighbors of a deleted node are informed as part of the
    /// model, not the protocol). Billed as a sent message like any other.
    void post_control(Message m);

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

    /// Start a new counting epoch. Requires an idle network: resetting with
    /// messages in flight would bill the previous epoch's deliveries into
    /// the new one (sent in the old epoch, rounds charged in the new).
    void reset_counters() {
        XHEAL_EXPECTS(idle());
        messages_sent_ = 0;
        messages_dropped_ = 0;
        rounds_ = 0;
    }

private:
    friend class Context;
    void enqueue(Message m, bool faultable);

    std::unordered_map<graph::NodeId, Handler> handlers_;
    /// queue_[i] holds the messages due i rounds after the next step()'s
    /// round: queue_[0] is delivered by the next step, queue_[latency] is
    /// where faultable sends land.
    std::deque<std::vector<Message>> queue_;
    std::size_t in_flight_ = 0;
    FaultModel model_;
    util::Rng drop_rng_{0x6c6f737379ull};  // "lossy"
    std::uint64_t messages_sent_ = 0;
    std::uint64_t messages_dropped_ = 0;
    std::uint64_t rounds_ = 0;
    /// Delivery-loop state: handler swaps requested mid-round are parked
    /// here and applied when the round completes (set_handler contract).
    bool stepping_ = false;
    std::vector<std::pair<graph::NodeId, Handler>> deferred_handlers_;
    std::vector<graph::NodeId> removed_mid_step_;
};

}  // namespace xheal::sim
