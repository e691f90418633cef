#include "expander/hgraph.hpp"

#include <algorithm>

#include "util/expects.hpp"

namespace xheal::expander {

using graph::NodeId;

namespace {

std::pair<NodeId, NodeId> ordered(NodeId a, NodeId b) {
    return {std::min(a, b), std::max(a, b)};
}

}  // namespace

HGraph::HGraph(std::vector<NodeId> members, std::size_t d, util::Rng& rng) {
    assign(members, d, rng);
}

void HGraph::assign(const std::vector<NodeId>& members, std::size_t d,
                    util::Rng& rng) {
    XHEAL_EXPECTS(d >= 1);
    XHEAL_EXPECTS(!members.empty());
    d_ = d;
    slot_ids_.assign(members.begin(), members.end());
    std::sort(slot_ids_.begin(), slot_ids_.end());
    XHEAL_EXPECTS(std::adjacent_find(slot_ids_.begin(), slot_ids_.end()) ==
                  slot_ids_.end());

    free_slots_.clear();
    by_id_.clear();
    by_id_.reserve(slot_ids_.size());
    for (std::uint32_t s = 0; s < slot_ids_.size(); ++s) by_id_.push_back({slot_ids_[s], s});
    succ_.resize(d_);
    pred_.resize(d_);
    for (std::size_t c = 0; c < d_; ++c) {
        succ_[c].assign(slot_ids_.size(), 0);
        pred_[c].assign(slot_ids_.size(), 0);
    }
    for (std::size_t c = 0; c < d_; ++c) shuffle_cycle(c, rng);
}

std::size_t HGraph::position_of(NodeId u) const {
    auto it = std::lower_bound(
        by_id_.begin(), by_id_.end(), u,
        [](const std::pair<NodeId, std::uint32_t>& e, NodeId id) { return e.first < id; });
    return static_cast<std::size_t>(it - by_id_.begin());
}

std::uint32_t HGraph::slot_of(NodeId u) const {
    std::size_t at = position_of(u);
    return at < by_id_.size() && by_id_[at].first == u ? by_id_[at].second : npos;
}

std::vector<NodeId> HGraph::members_sorted() const {
    std::vector<NodeId> out;
    out.reserve(by_id_.size());
    for (const auto& [id, slot] : by_id_) out.push_back(id);
    return out;
}

void HGraph::shuffle_cycle(std::size_t cycle, util::Rng& rng) {
    // Permute the live slots in ascending-id order; shuffling slot handles
    // consumes the identical rng draws as shuffling the sorted id list, so
    // construction remains bit-compatible with the original implementation.
    perm_.clear();
    for (const auto& [id, slot] : by_id_) perm_.push_back(slot);
    rng.shuffle(perm_);
    std::vector<std::uint32_t>& succ = succ_[cycle];
    std::vector<std::uint32_t>& pred = pred_[cycle];
    for (std::size_t i = 0; i < perm_.size(); ++i) {
        std::uint32_t a = perm_[i];
        std::uint32_t b = perm_[(i + 1) % perm_.size()];
        succ[a] = b;
        pred[b] = a;
    }
}

void HGraph::rebuild(util::Rng& rng) {
    for (std::size_t c = 0; c < d_; ++c) shuffle_cycle(c, rng);
}

void HGraph::remap_ids(const std::vector<NodeId>& old_to_new) {
    for (NodeId& id : slot_ids_) {
        if (id == graph::invalid_node) continue;  // free slot
        XHEAL_EXPECTS(id < old_to_new.size() &&
                      old_to_new[id] != graph::invalid_node);
        id = old_to_new[id];
    }
    // The map is monotone over live ids, so the sorted directory stays
    // sorted under an in-place rewrite.
    for (auto& [id, slot] : by_id_) id = old_to_new[id];
}

void HGraph::insert(NodeId u, util::Rng& rng, SpliceDelta* delta) {
    XHEAL_EXPECTS(!contains(u));
    XHEAL_EXPECTS(size() >= 1);

    std::uint32_t s;
    if (!free_slots_.empty()) {
        s = free_slots_.back();
        free_slots_.pop_back();
        slot_ids_[s] = u;
    } else {
        s = static_cast<std::uint32_t>(slot_ids_.size());
        slot_ids_.push_back(u);
        for (std::size_t c = 0; c < d_; ++c) {
            succ_[c].push_back(0);
            pred_[c].push_back(0);
        }
    }

    std::size_t n = by_id_.size();
    for (std::size_t c = 0; c < d_; ++c) {
        // Uniform position draw over the pre-insert members in ascending-id
        // order (the draw order the hash-based implementation used).
        std::uint32_t vslot = by_id_[rng.index(n)].second;
        std::uint32_t wslot = succ_[c][vslot];
        succ_[c][vslot] = s;
        pred_[c][s] = vslot;
        succ_[c][s] = wslot;
        pred_[c][wslot] = s;
        if (delta != nullptr) {
            NodeId v = slot_ids_[vslot];
            NodeId w = slot_ids_[wslot];
            delta->added.push_back(ordered(v, u));
            if (vslot != wslot) {
                delta->removed.push_back(ordered(v, w));
                delta->added.push_back(ordered(u, w));
            }
        }
    }
    by_id_.insert(by_id_.begin() + static_cast<std::ptrdiff_t>(position_of(u)),
                  {u, s});
}

void HGraph::remove(NodeId u, SpliceDelta* delta) {
    XHEAL_EXPECTS(size() >= 2);
    std::size_t at = position_of(u);
    XHEAL_EXPECTS(at < by_id_.size() && by_id_[at].first == u);
    std::uint32_t s = by_id_[at].second;

    for (std::size_t c = 0; c < d_; ++c) {
        std::uint32_t p = pred_[c][s];
        std::uint32_t n = succ_[c][s];
        succ_[c][p] = n;  // p == n (2-cycle) degenerates to a self-loop
        pred_[c][n] = p;
        if (delta != nullptr) {
            NodeId pid = slot_ids_[p];
            NodeId nid = slot_ids_[n];
            delta->removed.push_back(ordered(pid, u));
            if (n != p) {
                delta->removed.push_back(ordered(u, nid));
                delta->added.push_back(ordered(pid, nid));
            }
        }
    }
    by_id_.erase(by_id_.begin() + static_cast<std::ptrdiff_t>(at));
    slot_ids_[s] = graph::invalid_node;
    free_slots_.push_back(s);
}

NodeId HGraph::successor(NodeId u, std::size_t cycle) const {
    XHEAL_EXPECTS(cycle < succ_.size());
    std::uint32_t s = slot_of(u);
    XHEAL_EXPECTS(s != npos);
    return slot_ids_[succ_[cycle][s]];
}

NodeId HGraph::predecessor(NodeId u, std::size_t cycle) const {
    XHEAL_EXPECTS(cycle < pred_.size());
    std::uint32_t s = slot_of(u);
    XHEAL_EXPECTS(s != npos);
    return slot_ids_[pred_[cycle][s]];
}

bool HGraph::has_adjacency(NodeId a, NodeId b) const {
    std::uint32_t sa = slot_of(a);
    std::uint32_t sb = slot_of(b);
    if (sa == npos || sb == npos || sa == sb) return false;
    for (std::size_t c = 0; c < d_; ++c) {
        if (succ_[c][sa] == sb || pred_[c][sa] == sb) return true;
    }
    return false;
}

std::vector<std::pair<NodeId, NodeId>> HGraph::edges() const {
    std::vector<std::pair<NodeId, NodeId>> out;
    for_each_pair([&out](NodeId u, NodeId v) { out.emplace_back(u, v); });
    return out;
}

void HGraph::validate() const {
    for (std::size_t c = 0; c < d_; ++c) {
        const std::vector<std::uint32_t>& succ = succ_[c];
        const std::vector<std::uint32_t>& pred = pred_[c];
        for (const auto& [id, slot] : by_id_) {
            XHEAL_ASSERT(slot_ids_[succ[slot]] != graph::invalid_node);
            XHEAL_ASSERT(pred[succ[slot]] == slot);
        }
        // The successor map must form a single cycle covering all members.
        if (by_id_.empty()) continue;
        std::uint32_t start = by_id_.front().second;
        std::uint32_t cur = start;
        std::size_t steps = 0;
        do {
            cur = succ[cur];
            ++steps;
            XHEAL_ASSERT(steps <= by_id_.size());
        } while (cur != start);
        XHEAL_ASSERT(steps == by_id_.size());
    }
}

}  // namespace xheal::expander
