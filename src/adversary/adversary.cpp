#include "adversary/adversary.hpp"

#include <algorithm>

#include "graph/algorithms.hpp"
#include "util/expects.hpp"

namespace xheal::adversary {

using core::HealingSession;
using graph::NodeId;

NodeId RandomDeletion::pick(const HealingSession& session, util::Rng& rng) {
    const auto& alive = session.alive_pool();
    if (alive.empty()) return graph::invalid_node;
    return alive[rng.index(alive.size())];
}

NodeId MaxDegreeDeletion::pick(const HealingSession& session, util::Rng&) {
    const auto& g = session.current();
    NodeId best = graph::invalid_node;
    std::size_t best_degree = 0;
    for (NodeId v : g.nodes()) {
        std::size_t d = g.degree(v);
        if (best == graph::invalid_node || d > best_degree) {
            best = v;
            best_degree = d;
        }
    }
    return best;
}

NodeId MinDegreeDeletion::pick(const HealingSession& session, util::Rng&) {
    const auto& g = session.current();
    NodeId best = graph::invalid_node;
    std::size_t best_degree = 0;
    for (NodeId v : g.nodes()) {
        std::size_t d = g.degree(v);
        if (best == graph::invalid_node || d < best_degree) {
            best = v;
            best_degree = d;
        }
    }
    return best;
}

NodeId CutPointDeletion::pick(const HealingSession& session, util::Rng& rng) {
    const auto& g = session.current();
    auto cuts = graph::articulation_points(g);
    if (!cuts.empty()) return cuts[rng.index(cuts.size())];
    return MaxDegreeDeletion{}.pick(session, rng);
}

NodeId ColoredDegreeDeletion::pick(const HealingSession& session, util::Rng& rng) {
    const auto& g = session.current();
    NodeId best = graph::invalid_node;
    std::size_t best_colored = 0;
    for (NodeId v : g.nodes()) {
        std::size_t colored = 0;
        for (const auto& [u, claims] : g.row(v)) {
            (void)u;
            if (claims.colored()) ++colored;
        }
        if (best == graph::invalid_node || colored > best_colored) {
            best = v;
            best_colored = colored;
        }
    }
    if (best_colored == 0) return RandomDeletion{}.pick(session, rng);
    return best;
}

NodeId BridgeHunterDeletion::pick(const HealingSession& session, util::Rng& rng) {
    XHEAL_EXPECTS(registry_ != nullptr);
    const auto& g = session.current();
    // Kill bridge nodes (members of a secondary cloud) with the most
    // primary-cloud memberships: each kill forces a FixSecondary and burns
    // a free node, steering the healer toward the combine path.
    NodeId best = graph::invalid_node;
    std::size_t best_score = 0;
    std::vector<graph::ColorId> prim;  // reused across the scan: one buffer per pick
    for (NodeId v : g.nodes()) {
        if (registry_->is_free(v)) continue;
        registry_->primary_clouds_of(v, prim);
        std::size_t score = 1 + prim.size();
        if (best == graph::invalid_node || score > best_score) {
            best = v;
            best_score = score;
        }
    }
    if (best != graph::invalid_node) return best;
    return ColoredDegreeDeletion{}.pick(session, rng);
}

CompositeDeletion::CompositeDeletion(std::vector<Member> members)
    : members_(std::move(members)), counts_(members_.size(), 0) {
    XHEAL_EXPECTS(!members_.empty());
    double total = 0.0;
    for (const Member& m : members_) {
        XHEAL_EXPECTS(m.weight >= 0.0);
        total += m.weight;
    }
    XHEAL_EXPECTS(total > 0.0);
    double running = 0.0;
    for (const Member& m : members_) {
        running += m.weight / total;
        cumulative_.push_back(running);
    }
    // Float-sum slack must never make the last member unreachable.
    cumulative_.back() = 1.0;
}

NodeId CompositeDeletion::pick(const HealingSession& session, util::Rng& rng) {
    double u = rng.uniform01();
    std::size_t which = 0;
    while (which + 1 < members_.size() && u >= cumulative_[which]) ++which;
    ++counts_[which];
    return members_[which].strategy->pick(session, rng);
}

std::vector<NodeId> RandomAttach::pick_neighbors(const HealingSession& session,
                                                 util::Rng& rng) {
    const auto& alive = session.alive_pool();
    if (alive.empty()) return {};
    std::size_t k = std::min(k_, alive.size());
    // k distinct uniform picks by rejection: k is a small constant, so this
    // is O(k^2) expected instead of the full pool copy + shuffle that
    // rng.sample() performs (which dominated stepping at n = 1e5).
    std::vector<NodeId> chosen;
    chosen.reserve(k);
    while (chosen.size() < k) {
        NodeId v = alive[rng.index(alive.size())];
        if (std::find(chosen.begin(), chosen.end(), v) == chosen.end())
            chosen.push_back(v);
    }
    std::sort(chosen.begin(), chosen.end());
    return chosen;
}

std::vector<NodeId> PreferentialAttach::pick_neighbors(const HealingSession& session,
                                                       util::Rng& rng) {
    const auto& g = session.current();
    const auto& alive = session.alive_pool();
    if (alive.empty()) return {};
    std::size_t k = std::min(k_, alive.size());

    // (degree + 1)-proportional sampling without replacement (the +1 keeps
    // isolated nodes reachable), by rejection against the incrementally
    // maintained degree maximum: draw v uniformly from the alive pool and a
    // uniform threshold in [0, max_degree]; accept when the threshold lands
    // inside v's degree+1 slots. Equivalent to sampling a uniform occupied
    // cell of the (alive x max_degree+1) edge-endpoint matrix of the slot
    // graph, so acceptance is exact without any O(n) weight scan — the old
    // implementation recomputed the full prefix-sum per pick. Expected
    // trials per accept are (max_degree+1)/(mean_degree+1): O(1) whenever
    // max/mean degree is bounded, which the Lemma 3 degree invariant
    // guarantees for healed graphs (a star under no-heal degrades to the
    // old O(n) — the bench row pref_attach tracks the regular case).
    std::size_t max_degree = g.max_degree();
    std::vector<NodeId> chosen;
    chosen.reserve(k);
    while (chosen.size() < k) {
        NodeId v = alive[rng.index(alive.size())];
        if (rng.uniform_u64(0, max_degree) > g.degree(v)) continue;
        if (std::find(chosen.begin(), chosen.end(), v) == chosen.end())
            chosen.push_back(v);
    }
    std::sort(chosen.begin(), chosen.end());
    return chosen;
}

}  // namespace xheal::adversary
