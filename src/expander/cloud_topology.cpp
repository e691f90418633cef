#include "expander/cloud_topology.hpp"

#include <algorithm>

#include "util/expects.hpp"

namespace xheal::expander {

using graph::NodeId;

CloudTopology::CloudTopology(std::vector<NodeId> members, std::size_t d, util::Rng& rng)
    : d_(d), members_(std::move(members)) {
    XHEAL_EXPECTS(d >= 1);
    XHEAL_EXPECTS(!members_.empty());
    std::sort(members_.begin(), members_.end());
    XHEAL_EXPECTS(std::adjacent_find(members_.begin(), members_.end()) == members_.end());
    construct(rng);
}

void CloudTopology::reset(const std::vector<NodeId>& members, std::size_t d,
                          util::Rng& rng) {
    XHEAL_EXPECTS(d >= 1);
    XHEAL_EXPECTS(!members.empty());
    d_ = d;
    members_.assign(members.begin(), members.end());
    std::sort(members_.begin(), members_.end());
    XHEAL_EXPECTS(std::adjacent_find(members_.begin(), members_.end()) == members_.end());
    construct(rng);
}

void CloudTopology::construct(util::Rng& rng) {
    size_at_construction_ = members_.size();
    if (members_.size() <= kappa() + 1 || members_.size() < 3) {
        hgraph_active_ = false;  // clique mode; keep the H-graph's buffers
    } else {
        if (hgraph_.has_value()) hgraph_->assign(members_, d_, rng);
        else hgraph_.emplace(members_, d_, rng);
        hgraph_active_ = true;
    }
}

void CloudTopology::insert(NodeId u, util::Rng& rng, TopoDelta* delta) {
    XHEAL_EXPECTS(!contains(u));
    members_.insert(std::lower_bound(members_.begin(), members_.end(), u), u);
    if (hgraph_active_) {
        hgraph_->insert(u, rng, delta != nullptr ? &delta->splice : nullptr);
    } else if (members_.size() > kappa() + 1) {
        construct(rng);  // clique grew past the threshold: become an H-graph
        if (delta != nullptr) delta->full_resync = true;
    } else if (delta != nullptr) {
        // Clique: the newcomer connects to every existing member.
        for (NodeId m : members_) {
            if (m != u) delta->splice.added.push_back({std::min(m, u), std::max(m, u)});
        }
    }
    // Growth never triggers the half-loss rule; leave the baseline size so
    // interleaved deletions still count against the original construction.
}

void CloudTopology::remove(NodeId u, util::Rng& rng, TopoDelta* delta) {
    XHEAL_EXPECTS(contains(u));
    XHEAL_EXPECTS(members_.size() >= 2);
    members_.erase(std::lower_bound(members_.begin(), members_.end(), u));
    if (!hgraph_active_) {
        // Clique: only u's own edges disappear.
        if (delta != nullptr) {
            for (NodeId m : members_)
                delta->splice.removed.push_back({std::min(m, u), std::max(m, u)});
        }
        return;
    }
    if (members_.size() <= kappa() + 1 || members_.size() < 3) {
        construct(rng);  // shrink back to clique mode
        if (delta != nullptr) delta->full_resync = true;
        return;
    }
    hgraph_->remove(u, delta != nullptr ? &delta->splice : nullptr);
}

bool CloudTopology::needs_rebuild() const {
    return members_.size() * 2 < size_at_construction_;
}

void CloudTopology::rebuild(util::Rng& rng) {
    size_at_construction_ = members_.size();
    bool wants_hgraph = members_.size() > kappa() + 1 && members_.size() >= 3;
    if (wants_hgraph && hgraph_active_) {
        hgraph_->rebuild(rng);  // in place, allocation-free
    } else {
        construct(rng);
    }
}

void CloudTopology::collect_edges(std::vector<std::pair<NodeId, NodeId>>& out) const {
    if (hgraph_active_) {
        hgraph_->collect_edges(out);
        return;
    }
    out.clear();
    out.reserve(members_.size() * (members_.size() - 1) / 2);
    for (std::size_t i = 0; i < members_.size(); ++i)
        for (std::size_t j = i + 1; j < members_.size(); ++j)
            out.emplace_back(members_[i], members_[j]);
}

bool CloudTopology::projection_equals(
    const std::vector<std::pair<NodeId, NodeId>>& pairs) const {
    if (hgraph_active_) return hgraph_->projection_equals(pairs);
    // Clique: every member pair, in ascending order.
    std::size_t at = 0;
    for (std::size_t i = 0; i < members_.size(); ++i)
        for (std::size_t j = i + 1; j < members_.size(); ++j, ++at)
            if (at == pairs.size() || pairs[at] != std::pair{members_[i], members_[j]})
                return false;
    return at == pairs.size();
}

}  // namespace xheal::expander
