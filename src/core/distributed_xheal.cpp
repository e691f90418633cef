#include "core/distributed_xheal.hpp"

#include <algorithm>

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

DistributedXheal::DistributedXheal(XhealConfig config) : inner_(config) {
    net_.seed_drop_stream(config.seed ^ kDropStreamSalt);
}

void DistributedXheal::set_network_faults(const NetFaults& faults) {
    sim::FaultModel model;
    model.drop = faults.drop.value_or(0.0);
    model.latency = faults.latency.value_or(0);
    XHEAL_EXPECTS(model.drop >= 0.0 && model.drop <= 1.0);
    // The drop stream is intentionally NOT reseeded: phase boundaries must
    // not reset determinism mid-run.
    net_.set_fault_model(model);
}

sim::Handler DistributedXheal::protocol_handler() {
    return [this](const sim::Message& m, sim::Context& ctx) {
        if (m.type == sim::tag::ack) {
            if (m.payload < acked_.size()) acked_[m.payload] = 1;
            return;
        }
        if (m.ack_seq != 0) ctx.send(m.from, sim::tag::ack, m.ack_seq);
        if (m.type == sim::tag::flood && combine_active_) on_flood(m, ctx);
    };
}

std::uint64_t DistributedXheal::take_seqs(std::size_t n) {
    const std::uint64_t base = next_seq_;
    next_seq_ += n;
    if (acked_.size() < next_seq_) acked_.resize(next_seq_, 0);
    return base;
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
    const std::uint64_t base = take_seqs(batch.size());
    std::vector<std::size_t> pending(batch.size());
    for (std::size_t i = 0; i < pending.size(); ++i) pending[i] = i;
    for (std::size_t attempt = 0; attempt <= kMaxRetries && !pending.empty();
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
                      [&](std::size_t i) { return acked_[base + i] != 0; });
    }
    // Bounded retry: leftovers are abandoned. Repair decisions are
    // leader-local, so an abandoned install costs fidelity only — the
    // repaired graph is unaffected and the budget keeps runs terminating.
}

RepairReport DistributedXheal::on_delete(Graph& g, NodeId v) {
    ensure_attached(g);
    XHEAL_EXPECTS(g.has_node(v));
    // Epoch boundary: a previous repair may never leak in-flight messages
    // into this repair's bill.
    XHEAL_ASSERT(net_.idle());
    // Snapshot: the repair below removes v, so the view must be copied.
    auto nbr_view = g.neighbors(v);
    std::vector<NodeId> nbrs(nbr_view.begin(), nbr_view.end());

    RepairReport report = inner_.on_delete(g, v);

    std::uint64_t messages_before = net_.messages_sent();
    std::uint64_t rounds_before = net_.rounds_executed();
    std::fill(acked_.begin(), acked_.begin() + static_cast<std::ptrdiff_t>(next_seq_), 0);
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

    report.messages = net_.messages_sent() - messages_before;
    report.rounds = static_cast<std::size_t>(net_.rounds_executed() - rounds_before);
    report.retries = retries_accum_;
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

void DistributedXheal::check_consistency(const Graph& g, std::span<const NodeId> rows) const {
    inner_.check_consistency(g, rows);
    if (attached_) {
        for (NodeId v : rows)
            if (g.has_node(v)) XHEAL_ASSERT(net_.has_node(v));
    }
}

void DistributedXheal::phase_deletion_notice(NodeId v, const std::vector<NodeId>& nbrs) {
    std::vector<sim::Message> batch;
    batch.reserve(nbrs.size());
    for (NodeId u : nbrs) batch.push_back({v, u, sim::tag::deletion_notice});
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
        if (a != b) batch.push_back({a, b, sim::tag::splice});
    }
    deliver_reliably(batch);

    if (event.leader_was_deleted) {
        // Vice-leader takes over and announces itself to the cloud.
        NodeId announcer = cloud->leader;
        batch.clear();
        for (NodeId m : members) {
            if (m != announcer) batch.push_back({announcer, m, sim::tag::leader_announce});
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
    deliver_reliably({{survivor, survivor, sim::tag::leader_announce}});
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
            batch.push_back({active[i + 1], active[i], sim::tag::elect});
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
        batch.push_back({leader, a, sim::tag::inform_topology});
        batch.push_back({leader, b, sim::tag::inform_topology});
    });
    // Vice-leader designation rides along in the same round.
    if (cloud->vice_leader != graph::invalid_node) {
        batch.push_back({leader, cloud->vice_leader, sim::tag::leader_announce});
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
        for (NodeId b : event.members) batch.push_back({b, b, sim::tag::free_query});
        deliver_reliably(batch);
        batch.clear();
        for (NodeId b : event.members) batch.push_back({b, b, sim::tag::free_reply});
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
    deliver_reliably({{w, leader, sim::tag::free_query}});
    deliver_reliably({{leader, w, sim::tag::free_reply}});
    const std::vector<NodeId>& members = cloud->topology.members();
    std::size_t splices = std::min(kappa(), members.size());
    std::vector<sim::Message> batch;
    std::size_t sent = 0;
    for (NodeId m : members) {
        if (m == w) continue;
        batch.push_back({w, m, sim::tag::splice});
        if (++sent >= splices) break;
    }
    deliver_reliably(batch);
}

void DistributedXheal::on_flood(const sim::Message& m, sim::Context& ctx) {
    const std::uint32_t self = member_index(ctx.self());
    if (self == kNotMember || parent_[self] != graph::invalid_node) return;
    parent_[self] = m.from;
    for (std::uint32_t e = adj_start_[self]; e < adj_start_[self + 1]; ++e) {
        if (adj_[e] != m.from) ctx.send(adj_[e], sim::tag::flood);
    }
    std::uint64_t seq = 0;
    if (lossy()) {
        seq = take_seqs(1);
        converges_.push_back({ctx.self(), m.from, seq});
    }
    ctx.send(m.from, sim::tag::converge, 0, seq);  // address convergecast
}

void DistributedXheal::phase_combine(const HealEvent& event) {
    const Cloud* cloud = registry().find(event.color);
    if (cloud == nullptr || cloud->size() < 2) return;
    const std::vector<NodeId>& members = cloud->topology.members();

    // Number the members for this combine, then build the combined cloud's
    // adjacency as a CSR in two for_each_pair passes: count the degrees,
    // then fill. adj_start_[i + 1] serves as member i's fill cursor and
    // ends the pass as its end offset, so each neighbor list keeps the
    // pair order.
    ++combine_epoch_;
    const NodeId max_id = members.back();  // members are sorted ascending
    if (local_.size() <= max_id) local_.resize(static_cast<std::size_t>(max_id) + 1);
    for (std::size_t i = 0; i < members.size(); ++i) {
        local_[members[i]] = {combine_epoch_, static_cast<std::uint32_t>(i)};
    }
    adj_start_.assign(members.size() + 2, 0);
    cloud->topology.for_each_pair([this](NodeId a, NodeId b) {
        ++adj_start_[member_index(a) + 2];
        ++adj_start_[member_index(b) + 2];
    });
    for (std::size_t i = 2; i < adj_start_.size(); ++i) adj_start_[i] += adj_start_[i - 1];
    adj_.resize(adj_start_.back());
    cloud->topology.for_each_pair([this](NodeId a, NodeId b) {
        adj_[adj_start_[member_index(a) + 1]++] = b;
        adj_[adj_start_[member_index(b) + 1]++] = a;
    });
    adj_start_.pop_back();
    parent_.assign(members.size(), graph::invalid_node);
    converges_.clear();

    // Handler-driven BFS: first flood receipt forwards the wave and
    // convergecasts the node's address toward the root (via its parent).
    // Under loss the convergecast requests an ack so the driver can re-send
    // it; the flood itself is repaired by re-flooding from the visited
    // frontier (see the retry loop below).
    combine_active_ = true;
    const NodeId root = cloud->leader;
    const std::uint32_t root_index = member_index(root);
    const sim::FaultModel& model = net_.fault_model();
    const std::size_t budget = (model.latency + 1) * (4 * cloud->size() + 8);
    if (root_index != kNotMember) {
        parent_[root_index] = root;
        for (std::uint32_t e = adj_start_[root_index]; e < adj_start_[root_index + 1]; ++e) {
            net_.post(root, adj_[e], sim::tag::flood);
        }
    }
    net_.run(budget);
    XHEAL_ASSERT(net_.idle());

    if (lossy()) {
        // Retry loop: dropped floods are repaired by the visited frontier
        // re-flooding toward still-unvisited members (deterministic order:
        // members x projection adjacency); dropped or unacked convergecasts
        // are re-sent with their original sequence numbers.
        for (std::size_t attempt = 0; attempt < kMaxRetries; ++attempt) {
            std::size_t resent = 0;
            for (std::uint32_t u = 0; u < members.size(); ++u) {
                if (parent_[u] == graph::invalid_node) continue;
                for (std::uint32_t e = adj_start_[u]; e < adj_start_[u + 1]; ++e) {
                    if (parent_[member_index(adj_[e])] != graph::invalid_node) continue;
                    net_.post(members[u], adj_[e], sim::tag::flood);
                    ++resent;
                }
            }
            for (const Converge& c : converges_) {
                if (acked_[c.seq] != 0) continue;
                net_.post(sim::Message{c.child, c.parent, sim::tag::converge, 0, c.seq});
                ++resent;
            }
            if (resent == 0) break;
            retries_accum_ += resent;
            net_.run(budget);
            XHEAL_ASSERT(net_.idle());
        }
    }
    combine_active_ = false;
    install_topology(event.color);
}

}  // namespace xheal::core
