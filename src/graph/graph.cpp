#include "graph/graph.hpp"

namespace xheal::graph {

Graph::Graph(std::span<const std::size_t> offsets, std::span<const NodeId> targets) {
    XHEAL_EXPECTS(!offsets.empty() && offsets.front() == 0 &&
                  offsets.back() == targets.size() && targets.size() % 2 == 0);
    const std::size_t n = offsets.size() - 1;
    XHEAL_EXPECTS(n < invalid_node);
    slots_.resize(n);
    for (NodeId v = 0; v < n; ++v) {
        const std::size_t begin = offsets[v], end = offsets[v + 1];
        XHEAL_EXPECTS(begin <= end);
        std::vector<NeighborEntry>& row = slots_[v].row;
        row.reserve(end - begin);
        for (std::size_t k = begin; k < end; ++k) {
            const NodeId u = targets[k];
            XHEAL_EXPECTS(u < n && u != v && (k == begin || targets[k - 1] < u));
            row.emplace_back(u, EdgeClaims{.colors = {}, .black = true});
        }
        slots_[v].state = SlotState::alive;
        degree_changed(SIZE_MAX, row.size());
    }
    live_nodes_ = n;
    next_id_ = static_cast<NodeId>(n);
    edge_count_ = targets.size() / 2;
}

void Graph::reserve_slots(NodeId n) {
    if (slots_.size() < n) slots_.resize(n);
}

NodeId Graph::add_node() {
    NodeId v = next_id_++;
    reserve_slots(next_id_);
    adopt_pooled_row(slots_[v]);
    slots_[v].state = SlotState::alive;
    ++live_nodes_;
    degree_changed(SIZE_MAX, 0);
    journal_.touch(v);
    return v;
}

void Graph::add_node_with_id(NodeId v) {
    XHEAL_EXPECTS(v != invalid_node);
    XHEAL_EXPECTS(!has_node(v));
    // Ids are never reused: a tombstoned slot cannot come back to life.
    XHEAL_EXPECTS(v >= slots_.size() || slots_[v].state == SlotState::empty);
    if (v >= next_id_) {
        next_id_ = v + 1;
        reserve_slots(next_id_);
    }
    adopt_pooled_row(slots_[v]);
    slots_[v].state = SlotState::alive;
    ++live_nodes_;
    degree_changed(SIZE_MAX, 0);
    journal_.touch(v);
}

void Graph::adopt_pooled_row(Slot& slot) {
    if (slot.row.capacity() == 0 && !row_pool_.empty()) {
        slot.row = std::move(row_pool_.back());
        row_pool_.pop_back();
        slot.row.clear();
    }
}

void Graph::remove_node(NodeId v) {
    XHEAL_EXPECTS(has_node(v));
    Slot& slot = slots_[v];
    journal_.touch(v);
    for (const NeighborEntry& e : slot.row) {
        std::vector<NeighborEntry>& other = slots_[e.first].row;
        auto pos = row_lower_bound(other, v);
        XHEAL_ASSERT(pos != other.end() && pos->first == v);
        other.erase(pos);
        degree_changed(other.size() + 1, other.size());
        --edge_count_;
        journal_.touch(e.first);
    }
    degree_changed(slot.row.size(), SIZE_MAX);
    --live_nodes_;
    slot.state = SlotState::dead;
    // The tombstone never hosts edges again. Its row storage is recycled
    // into future add_node slots (capped, so delete-heavy runs don't retain
    // unbounded dead-row memory): ids are never reused, so without this a
    // churning population would pay a first-growth allocation per new node
    // and the repair path could never reach allocation-free steady state.
    slot.row.clear();
    if (slot.row.capacity() != 0 && row_pool_.size() < row_pool_cap) {
        // One-time full reserve: the pool's own growth must not allocate
        // mid-run either (the steady-state soaks pin repair at zero).
        if (row_pool_.capacity() == 0) row_pool_.reserve(row_pool_cap);
        row_pool_.push_back(std::move(slot.row));
    }
    std::vector<NeighborEntry>().swap(slot.row);
}

void Graph::compact(std::vector<NodeId>& old_to_new) {
    old_to_new.assign(next_id_, invalid_node);
    NodeId dense = 0;
    for (NodeId v = 0; v < next_id_; ++v)
        if (slots_[v].state == SlotState::alive) old_to_new[v] = dense++;
    apply_id_map(old_to_new);
}

void Graph::apply_id_map(const std::vector<NodeId>& old_to_new) {
    XHEAL_EXPECTS(old_to_new.size() == next_id_);
    // Forward pass: the map is ascending-dense (new <= old), so by the time
    // slot v moves down to old_to_new[v], every lower target slot has
    // already been vacated. Row ids are rewritten in place first; the map
    // is monotone over live ids, so each row stays sorted.
    NodeId dense = 0;
    for (NodeId v = 0; v < next_id_; ++v) {
        Slot& slot = slots_[v];
        if (slot.state != SlotState::alive) {
            // Tombstones leave the epoch: the slot is reclaimed wholesale
            // (its row storage was already recycled by remove_node).
            XHEAL_EXPECTS(old_to_new[v] == invalid_node);
            slot.state = SlotState::empty;
            continue;
        }
        NodeId to = old_to_new[v];
        // The map must be exactly this graph's ascending dense map — this
        // is what lets a mirrored graph (the purged reference) apply the
        // same map safely: any live-set mismatch trips here.
        XHEAL_EXPECTS(to == dense);
        ++dense;
        for (NeighborEntry& e : slot.row) {
            XHEAL_ASSERT(e.first < old_to_new.size() &&
                         old_to_new[e.first] != invalid_node);
            e.first = old_to_new[e.first];
        }
        if (to != v) {
            slots_[to] = std::move(slot);
            slot.state = SlotState::empty;
            slot.row.clear();
        }
    }
    XHEAL_ASSERT(dense == live_nodes_);
    // Reclaim the tail: capacity is retained (the next epoch regrows into
    // it), the Slot objects beyond the live range are destroyed.
    slots_.resize(live_nodes_);
    next_id_ = static_cast<NodeId>(live_nodes_);
    journal_.invalidate();
    claim_journal_.invalidate();
}

std::vector<NeighborEntry>::iterator Graph::row_lower_bound(
    std::vector<NeighborEntry>& row, NodeId v) {
    return std::lower_bound(row.begin(), row.end(), v,
                            [](const NeighborEntry& e, NodeId id) { return e.first < id; });
}

std::vector<NeighborEntry>::const_iterator Graph::row_lower_bound(
    const std::vector<NeighborEntry>& row, NodeId v) {
    return std::lower_bound(row.begin(), row.end(), v,
                            [](const NeighborEntry& e, NodeId id) { return e.first < id; });
}

const EdgeClaims* Graph::find_claims(NodeId u, NodeId v) const {
    if (!has_node(u) || !has_node(v)) return nullptr;
    const std::vector<NeighborEntry>& row = slots_[u].row;
    auto pos = row_lower_bound(row, v);
    if (pos == row.end() || pos->first != v) return nullptr;
    return &pos->second;
}

std::pair<NeighborEntry*, NeighborEntry*> Graph::find_edge(NodeId u, NodeId v) {
    if (!has_node(u) || !has_node(v)) return {nullptr, nullptr};
    std::vector<NeighborEntry>& ru = slots_[u].row;
    auto pu = row_lower_bound(ru, v);
    if (pu == ru.end() || pu->first != v) return {nullptr, nullptr};
    std::vector<NeighborEntry>& rv = slots_[v].row;
    auto pv = row_lower_bound(rv, u);
    XHEAL_ASSERT(pv != rv.end() && pv->first == u);
    return {&*pu, &*pv};
}

std::pair<EdgeClaims*, EdgeClaims*> Graph::ensure_edge(NodeId u, NodeId v) {
    XHEAL_EXPECTS(u != v);
    XHEAL_EXPECTS(has_node(u));
    XHEAL_EXPECTS(has_node(v));
    std::vector<NeighborEntry>& ru = slots_[u].row;
    auto pu = row_lower_bound(ru, v);
    if (pu == ru.end() || pu->first != v) {
        // Create the edge in both rows; they share logical state so every
        // mutation is mirrored explicitly by the callers.
        pu = ru.emplace(pu, v, EdgeClaims{});
        degree_changed(ru.size() - 1, ru.size());
        std::vector<NeighborEntry>& rv = slots_[v].row;
        auto pv = row_lower_bound(rv, u);
        pv = rv.emplace(pv, u, EdgeClaims{});
        degree_changed(rv.size() - 1, rv.size());
        ++edge_count_;
        journal_.touch(u, v);
        return {&pu->second, &pv->second};
    }
    std::vector<NeighborEntry>& rv = slots_[v].row;
    auto pv = row_lower_bound(rv, u);
    XHEAL_ASSERT(pv != rv.end() && pv->first == u);
    return {&pu->second, &pv->second};
}

void Graph::add_black_edge(NodeId u, NodeId v) {
    auto [cu, cv] = ensure_edge(u, v);
    if (cu->black) return;
    cu->black = true;
    cv->black = true;
    claim_journal_.touch(u, v);
}

void Graph::add_color_claim(NodeId u, NodeId v, ColorId color) {
    XHEAL_EXPECTS(color != invalid_color);
    auto [cu, cv] = ensure_edge(u, v);
    if (!cu->colors.insert(color)) return;
    cv->colors.insert(color);
    claim_journal_.touch(u, v);
}

void Graph::erase_edge(NodeId u, const NeighborEntry* in_u, NodeId v,
                       const NeighborEntry* in_v) {
    std::vector<NeighborEntry>& ru = slots_[u].row;
    ru.erase(ru.begin() + (in_u - ru.data()));
    degree_changed(ru.size() + 1, ru.size());
    std::vector<NeighborEntry>& rv = slots_[v].row;
    rv.erase(rv.begin() + (in_v - rv.data()));
    degree_changed(rv.size() + 1, rv.size());
    --edge_count_;
    journal_.touch(u, v);
}

bool Graph::remove_color_claim(NodeId u, NodeId v, ColorId color) {
    auto [eu, ev] = find_edge(u, v);
    if (eu == nullptr) return false;
    if (!eu->second.colors.erase(color)) return false;
    ev->second.colors.erase(color);
    claim_journal_.touch(u, v);
    if (eu->second.empty()) erase_edge(u, eu, v, ev);
    return true;
}

bool Graph::remove_black_claim(NodeId u, NodeId v) {
    auto [eu, ev] = find_edge(u, v);
    if (eu == nullptr) return false;
    if (!eu->second.black) return false;
    eu->second.black = false;
    ev->second.black = false;
    claim_journal_.touch(u, v);
    if (eu->second.empty()) erase_edge(u, eu, v, ev);
    return true;
}

bool Graph::has_edge(NodeId u, NodeId v) const { return find_claims(u, v) != nullptr; }

bool Graph::has_black_claim(NodeId u, NodeId v) const {
    const EdgeClaims* c = find_claims(u, v);
    return c != nullptr && c->black;
}

bool Graph::has_color_claim(NodeId u, NodeId v, ColorId color) const {
    const EdgeClaims* c = find_claims(u, v);
    return c != nullptr && c->has_color(color);
}

bool Graph::is_colored_edge(NodeId u, NodeId v) const {
    const EdgeClaims* c = find_claims(u, v);
    return c != nullptr && c->colored();
}

const EdgeClaims& Graph::claims(NodeId u, NodeId v) const {
    const EdgeClaims* c = find_claims(u, v);
    XHEAL_EXPECTS(c != nullptr);
    return *c;
}

void Graph::degree_changed(std::size_t old_degree, std::size_t new_degree) {
    // SIZE_MAX marks "no bucket": node birth (old) or death (new).
    if (old_degree != SIZE_MAX) {
        XHEAL_ASSERT(old_degree < degree_hist_.size() && degree_hist_[old_degree] > 0);
        --degree_hist_[old_degree];
    }
    if (new_degree != SIZE_MAX) {
        if (new_degree >= degree_hist_.size()) degree_hist_.resize(new_degree + 1, 0);
        ++degree_hist_[new_degree];
        if (new_degree > max_hint_) max_hint_ = new_degree;
        if (new_degree < min_hint_) min_hint_ = new_degree;
    }
}

std::size_t Graph::max_degree() const {
    if (live_nodes_ == 0) return 0;
    while (max_hint_ > 0 && degree_hist_[max_hint_] == 0) --max_hint_;
    return max_hint_;
}

std::size_t Graph::min_degree() const {
    if (live_nodes_ == 0) return 0;
    while (min_hint_ < degree_hist_.size() && degree_hist_[min_hint_] == 0) ++min_hint_;
    XHEAL_ASSERT(min_hint_ < degree_hist_.size());
    return min_hint_;
}

}  // namespace xheal::graph
