#include "sim/network.hpp"

#include <algorithm>
#include <utility>

namespace xheal::sim {

std::size_t Context::round() const { return network_.rounds_executed(); }

void Context::send(graph::NodeId to, int type, std::uint64_t payload,
                   std::uint64_t ack_seq) {
    network_.enqueue(Message{self_, to, type, payload, ack_seq});
}

void Network::place(graph::NodeId id, Handler handler) {
    XHEAL_EXPECTS(id != graph::invalid_node);
    XHEAL_EXPECTS(!has_node(id));
    if (id >= live_.size()) {
        handlers_.resize(id + 1);
        live_.resize(id + 1, 0);
    }
    handlers_[id] = std::move(handler);
    live_[id] = 1;
    ++live_count_;
}

void Network::erase(graph::NodeId id) {
    if (!has_node(id)) return;
    handlers_[id] = nullptr;
    live_[id] = 0;
    --live_count_;
}

void Network::add_node(graph::NodeId id, Handler handler) {
    // Growing handlers_ would move the std::function a handler is running in.
    XHEAL_EXPECTS(!stepping_);
    place(id, std::move(handler));
}

void Network::remove_node(graph::NodeId id) {
    XHEAL_EXPECTS(has_node(id));
    if (stepping_) {
        // Mid-round removal would destroy a handler the delivery loop may
        // still invoke; the node leaves when the round completes.
        removed_mid_step_.push_back(id);
        return;
    }
    erase(id);
}

void Network::remap_nodes(const std::vector<graph::NodeId>& old_to_new) {
    XHEAL_EXPECTS(idle());
    XHEAL_EXPECTS(!stepping_);
    // Rekey through scratch: new ids may land on slots whose old handler
    // has not moved yet, and the handler std::functions must move, not copy
    // (they may own captured state).
    std::vector<std::pair<graph::NodeId, Handler>> moved;
    moved.reserve(live_count_);
    for (graph::NodeId id = 0; id < live_.size(); ++id) {
        if (live_[id] == 0) continue;
        XHEAL_EXPECTS(id < old_to_new.size() &&
                      old_to_new[id] != graph::invalid_node);
        moved.emplace_back(old_to_new[id], std::move(handlers_[id]));
    }
    handlers_.clear();
    live_.clear();
    live_count_ = 0;
    for (auto& [id, handler] : moved) place(id, std::move(handler));
}

void Network::post(const Message& m) { enqueue(m); }

void Network::post(graph::NodeId from, graph::NodeId to, int type, std::uint64_t payload) {
    enqueue(Message{from, to, type, payload});
}

void Network::enqueue(const Message& m) {
    ++messages_sent_;
    if (model_.drop > 0.0 && drop_rng_.chance(model_.drop)) {
        ++messages_dropped_;
        return;
    }
    const std::size_t slot = model_.latency;
    if (ring_.size() <= slot) {
        // Unroll the ring to head 0 before growing it, so the new empty
        // buckets land after the farthest pending round.
        std::rotate(ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(head_),
                    ring_.end());
        head_ = 0;
        ring_.resize(slot + 1);
    }
    ring_[(head_ + slot) % ring_.size()].push_back(m);
    ++in_flight_;
}

std::size_t Network::step() {
    if (in_flight_ == 0) return 0;
    ++rounds_;
    current_.clear();
    current_.swap(ring_[head_]);
    head_ = (head_ + 1) % ring_.size();
    in_flight_ -= current_.size();

    stepping_ = true;
    std::size_t delivered = 0;
    for (const Message& m : current_) {
        if (!has_node(m.to)) continue;  // deleted node: message dropped
        ++delivered;
        if (Handler& handler = handlers_[m.to]) {
            Context ctx(*this, m.to);
            handler(m, ctx);
        }
    }
    stepping_ = false;

    for (graph::NodeId id : removed_mid_step_) erase(id);
    removed_mid_step_.clear();
    return delivered;
}

std::size_t Network::run(std::size_t max_rounds) {
    std::size_t executed = 0;
    while (!idle() && executed < max_rounds) {
        step();
        ++executed;
    }
    return executed;
}

}  // namespace xheal::sim
