#include "core/distributed_xheal.hpp"

#include <algorithm>
#include <tuple>
#include <unordered_map>

#include "util/expects.hpp"

namespace xheal::core {

using graph::ColorId;
using graph::Graph;
using graph::NodeId;

namespace {
// Salt separating the network's drop-coin stream from the healer's repair
// randomness: faults must never perturb which repairs happen.
constexpr std::uint64_t kDropStreamSalt = 0x9e3779b97f4a7c15ull;
}  // namespace

DistributedXheal::DistributedXheal(XhealConfig config, DistFaultConfig faults)
    : inner_(config), base_faults_(faults), max_retries_(faults.retries) {
    XHEAL_EXPECTS(faults.drop >= 0.0 && faults.drop <= 1.0);
    net_.seed_drop_stream(config.seed ^ kDropStreamSalt);
    net_.set_fault_model({faults.drop, faults.latency});
}

void DistributedXheal::set_network_faults(const NetFaults& faults) {
    sim::FaultModel model;
    model.drop = faults.drop.value_or(base_faults_.drop);
    model.latency = faults.latency.value_or(base_faults_.latency);
    XHEAL_EXPECTS(model.drop >= 0.0 && model.drop <= 1.0);
    // The drop stream is intentionally NOT reseeded: phase boundaries must
    // not reset determinism mid-run.
    net_.set_fault_model(model);
}

sim::Handler DistributedXheal::protocol_handler() {
    return [this](const sim::Message& m, sim::Context& ctx) {
        if (m.type == sim::tag::ack) {
            if (!m.payload.empty()) acked_.insert(m.payload[0]);
            return;
        }
        if (m.ack_seq != 0) ctx.send(m.from, sim::tag::ack, {m.ack_seq});
    };
}

void DistributedXheal::ensure_attached(const Graph& g) {
    if (attached_) return;
    for (NodeId v : g.nodes()) {
        if (!net_.has_node(v)) net_.add_node(v, protocol_handler());
    }
    attached_ = true;
}

void DistributedXheal::on_insert(Graph& g, NodeId v) {
    ensure_attached(g);
    if (!net_.has_node(v)) net_.add_node(v, protocol_handler());
    // Insertion requires no healing work (paper Section 5); neighbors'
    // NoN bookkeeping is part of the model's O(1) preprocessing.
    inner_.on_insert(g, v);
}

void DistributedXheal::deliver_reliably(const std::vector<sim::Message>& batch) {
    if (batch.empty()) return;
    const sim::FaultModel& model = net_.fault_model();
    if (model.drop == 0.0) {
        // Perfect-delivery fast path: no acks, so message/round counts are
        // byte-identical to the historical protocol (one delivery round per
        // 1 + latency hops, nothing else in flight).
        for (const sim::Message& m : batch) net_.post(m);
        net_.run(model.latency + 2);
        XHEAL_ASSERT(net_.idle());
        return;
    }
    const std::size_t drain = 2 * (model.latency + 1) + 2;
    const std::uint64_t base = next_seq_;
    next_seq_ += batch.size();
    std::vector<std::size_t> pending(batch.size());
    for (std::size_t i = 0; i < pending.size(); ++i) pending[i] = i;
    for (std::size_t attempt = 0; attempt <= max_retries_ && !pending.empty();
         ++attempt) {
        if (attempt > 0) retries_accum_ += pending.size();
        for (std::size_t i : pending) {
            sim::Message m = batch[i];
            m.ack_seq = base + i;
            net_.post(std::move(m));
        }
        // Timeout = the network draining (send-time drops mean every
        // surviving message resolves within one RTT).
        net_.run(drain);
        XHEAL_ASSERT(net_.idle());
        std::erase_if(pending,
                      [&](std::size_t i) { return acked_.contains(base + i); });
    }
    // Bounded retry: leftovers are abandoned. Repair decisions are
    // leader-local, so an abandoned install costs fidelity only — the
    // repaired graph is unaffected and the budget keeps runs terminating.
}

RepairReport DistributedXheal::on_delete(Graph& g, NodeId v) {
    ensure_attached(g);
    XHEAL_EXPECTS(g.has_node(v));
    // Epoch boundary: a previous repair may never leak in-flight messages
    // into this repair's bill (reset_counters-style guarantee).
    XHEAL_ASSERT(net_.idle());
    // Snapshot: the repair below removes v, so the view must be copied.
    auto nbr_view = g.neighbors(v);
    std::vector<NodeId> nbrs(nbr_view.begin(), nbr_view.end());

    RepairReport report = inner_.on_delete(g, v);

    std::uint64_t messages_before = net_.messages_sent();
    std::uint64_t rounds_before = net_.rounds_executed();
    acked_.clear();
    next_seq_ = 1;
    retries_accum_ = 0;

    // v stays on the network through the notice phase so that, under loss,
    // its neighbors' acks still have a live collector — reliable delivery
    // of the deletion notice itself.
    phase_deletion_notice(v, nbrs);
    if (net_.has_node(v)) net_.remove_node(v);

    for (const HealEvent& event : inner_.last_events()) {
        switch (event.kind) {
            case HealEvent::Kind::fix_cloud:
                phase_fix_cloud(event);
                break;
            case HealEvent::Kind::dissolve_cloud:
                phase_dissolve(event);
                break;
            case HealEvent::Kind::create_primary:
            case HealEvent::Kind::create_secondary:
                phase_create_cloud(event);
                break;
            case HealEvent::Kind::insert_member:
                phase_insert_member(event);
                break;
            case HealEvent::Kind::combine:
                phase_combine(event);
                break;
        }
    }
    XHEAL_ASSERT(net_.idle());

    last_messages_ = net_.messages_sent() - messages_before;
    last_rounds_ = static_cast<std::size_t>(net_.rounds_executed() - rounds_before);
    last_retries_ = retries_accum_;
    report.messages = last_messages_;
    report.rounds = last_rounds_;
    report.retries = last_retries_;
    return report;
}

void DistributedXheal::on_compact(Graph& g, const std::vector<NodeId>& old_to_new) {
    inner_.on_compact(g, old_to_new);
    // Between repairs the network is always drained (every phase ends in a
    // full run()), so the mailbox directory can be rekeyed wholesale. Dead
    // nodes already left the network when their deletion was repaired.
    if (attached_) net_.remap_nodes(old_to_new);
}

void DistributedXheal::check_consistency(const Graph& g) const {
    inner_.check_consistency(g);
    // Every alive graph node must have a network actor once attached.
    if (attached_) {
        for (NodeId v : g.nodes()) XHEAL_ASSERT(net_.has_node(v));
    }
}

void DistributedXheal::phase_deletion_notice(NodeId v, const std::vector<NodeId>& nbrs) {
    std::vector<sim::Message> batch;
    batch.reserve(nbrs.size());
    for (NodeId u : nbrs) batch.push_back({v, u, sim::tag::deletion_notice, {}});
    deliver_reliably(batch);
}

void DistributedXheal::phase_fix_cloud(const HealEvent& event) {
    const Cloud* cloud = registry().find(event.color);
    if (cloud == nullptr) return;  // destroyed by a later combine
    const std::vector<NodeId>& members = cloud->topology.members();
    if (members.empty()) return;

    // H-graph DELETE splice: the deleted node's <= kappa cycle neighbors
    // reconnect pairwise — O(kappa) messages, one round.
    std::size_t splices = std::min(kappa(), members.size());
    std::vector<sim::Message> batch;
    for (std::size_t i = 0; i < splices; ++i) {
        NodeId a = members[i % members.size()];
        NodeId b = members[(i + 1) % members.size()];
        if (a != b) batch.push_back({a, b, sim::tag::splice, {}});
    }
    deliver_reliably(batch);

    if (event.leader_was_deleted) {
        // Vice-leader takes over and announces itself to the cloud.
        NodeId announcer = cloud->leader;
        batch.clear();
        for (NodeId m : members) {
            if (m != announcer) batch.push_back({announcer, m, sim::tag::leader_announce, {}});
        }
        deliver_reliably(batch);
    }
    if (event.rebuilt) {
        // Half-loss rule: leader rebuilt the expander; install it.
        install_topology(event.color);
    }
}

void DistributedXheal::phase_dissolve(const HealEvent& event) {
    if (event.members.empty()) return;
    // The survivor is told the cloud is gone (by the departing leader's
    // final message).
    NodeId survivor = event.members.front();
    deliver_reliably({{survivor, survivor, sim::tag::leader_announce, {}}});
}

graph::NodeId DistributedXheal::run_tournament(const std::vector<NodeId>& candidates) {
    XHEAL_EXPECTS(!candidates.empty());
    std::vector<NodeId> active = candidates;
    std::vector<sim::Message> batch;
    while (active.size() > 1) {
        std::vector<NodeId> winners;
        winners.reserve((active.size() + 1) / 2);
        batch.clear();
        for (std::size_t i = 0; i + 1 < active.size(); i += 2) {
            // Loser reports to winner; one message per match.
            batch.push_back({active[i + 1], active[i], sim::tag::elect, {}});
            winners.push_back(active[i]);
        }
        if (active.size() % 2 == 1) winners.push_back(active.back());
        deliver_reliably(batch);
        active = std::move(winners);
    }
    return active.front();
}

void DistributedXheal::install_topology(ColorId color) {
    const Cloud* cloud = registry().find(color);
    if (cloud == nullptr) return;
    NodeId leader = cloud->leader;
    std::vector<sim::Message> batch;
    cloud->topology.for_each_pair([&](NodeId a, NodeId b) {
        batch.push_back({leader, a, sim::tag::inform_topology, {}});
        batch.push_back({leader, b, sim::tag::inform_topology, {}});
    });
    // Vice-leader designation rides along in the same round.
    if (cloud->vice_leader != graph::invalid_node) {
        batch.push_back({leader, cloud->vice_leader, sim::tag::leader_announce, {}});
    }
    deliver_reliably(batch);
}

void DistributedXheal::phase_create_cloud(const HealEvent& event) {
    if (event.members.size() < 2) return;
    if (event.kind == HealEvent::Kind::create_secondary) {
        // Free-node discovery: each bridge was located by querying its
        // cloud leader — one query + one reply per bridge.
        std::vector<sim::Message> batch;
        batch.reserve(event.members.size());
        for (NodeId b : event.members) batch.push_back({b, b, sim::tag::free_query, {}});
        deliver_reliably(batch);
        batch.clear();
        for (NodeId b : event.members) batch.push_back({b, b, sim::tag::free_reply, {}});
        deliver_reliably(batch);
    }
    run_tournament(event.members);
    install_topology(event.color);
}

void DistributedXheal::phase_insert_member(const HealEvent& event) {
    const Cloud* cloud = registry().find(event.color);
    if (cloud == nullptr || event.members.empty()) return;
    NodeId w = event.members.front();
    NodeId leader = cloud->leader == w && cloud->vice_leader != graph::invalid_node
                        ? cloud->vice_leader
                        : cloud->leader;
    // H-graph INSERT: query the leader for random cycle positions, receive
    // them, then splice in next to <= kappa cycle neighbors.
    deliver_reliably({{w, leader, sim::tag::free_query, {}}});
    deliver_reliably({{leader, w, sim::tag::free_reply, {}}});
    const std::vector<NodeId>& members = cloud->topology.members();
    std::size_t splices = std::min(kappa(), members.size());
    std::vector<sim::Message> batch;
    std::size_t sent = 0;
    for (NodeId m : members) {
        if (m == w) continue;
        batch.push_back({w, m, sim::tag::splice, {}});
        if (++sent >= splices) break;
    }
    deliver_reliably(batch);
}

void DistributedXheal::phase_combine(const HealEvent& event) {
    const Cloud* cloud = registry().find(event.color);
    if (cloud == nullptr || cloud->size() < 2) return;

    // Build the combined cloud's adjacency for the BFS flood.
    std::unordered_map<NodeId, std::vector<NodeId>> adj;
    cloud->topology.for_each_pair([&adj](NodeId a, NodeId b) {
        adj[a].push_back(b);
        adj[b].push_back(a);
    });

    const bool lossy_mode = lossy();
    // Handler-driven BFS: first flood receipt forwards the wave and
    // convergecasts the node's address toward the root (via its parent).
    // Under loss the convergecast requests an ack so the driver can re-send
    // it; the flood itself is repaired by re-flooding from the visited
    // frontier (see the retry loop below).
    std::unordered_map<NodeId, NodeId> parent;
    NodeId root = cloud->leader;
    parent.emplace(root, root);
    std::vector<std::tuple<NodeId, NodeId, std::uint64_t>> converges;
    auto member_handler = [this, &adj, &parent, &converges, lossy_mode](
                              const sim::Message& m, sim::Context& ctx) {
        if (m.type == sim::tag::ack) {
            if (!m.payload.empty()) acked_.insert(m.payload[0]);
            return;
        }
        if (m.ack_seq != 0) ctx.send(m.from, sim::tag::ack, {m.ack_seq});
        if (m.type != sim::tag::flood) return;
        if (parent.contains(ctx.self())) return;  // already visited
        parent.emplace(ctx.self(), m.from);
        auto it = adj.find(ctx.self());
        if (it != adj.end()) {
            for (NodeId nbr : it->second) {
                if (nbr != m.from) ctx.send(nbr, sim::tag::flood);
            }
        }
        std::uint64_t seq = 0;
        if (lossy_mode) {
            seq = next_seq_++;
            converges.emplace_back(ctx.self(), m.from, seq);
        }
        ctx.send(m.from, sim::tag::converge, {}, seq);  // address convergecast
    };
    const std::vector<NodeId>& members = cloud->topology.members();
    for (NodeId m : members) {
        if (net_.has_node(m)) net_.set_handler(m, member_handler);
    }

    const sim::FaultModel& model = net_.fault_model();
    const std::size_t budget = (model.latency + 1) * (4 * cloud->size() + 8);
    auto root_it = adj.find(root);
    if (root_it != adj.end()) {
        for (NodeId nbr : root_it->second) net_.post(root, nbr, sim::tag::flood);
    }
    net_.run(budget);
    XHEAL_ASSERT(net_.idle());

    if (lossy_mode) {
        // Retry loop: dropped floods are repaired by the visited frontier
        // re-flooding toward still-unvisited members (deterministic order:
        // members x projection adjacency); dropped or unacked convergecasts
        // are re-sent with their original sequence numbers.
        for (std::size_t attempt = 0; attempt < max_retries_; ++attempt) {
            std::size_t resent = 0;
            for (NodeId u : members) {
                if (!parent.contains(u)) continue;
                auto it = adj.find(u);
                if (it == adj.end()) continue;
                for (NodeId w : it->second) {
                    if (parent.contains(w)) continue;
                    net_.post(u, w, sim::tag::flood);
                    ++resent;
                }
            }
            for (const auto& [child, par, seq] : converges) {
                if (acked_.contains(seq)) continue;
                net_.post(sim::Message{child, par, sim::tag::converge, {}, seq});
                ++resent;
            }
            if (resent == 0) break;
            retries_accum_ += resent;
            net_.run(budget);
            XHEAL_ASSERT(net_.idle());
        }
    }

    // Restore protocol handlers before the leader's broadcast.
    for (NodeId m : members) {
        if (net_.has_node(m)) net_.set_handler(m, protocol_handler());
    }
    install_topology(event.color);
}

}  // namespace xheal::core
