#include "core/session.hpp"

#include "core/invariants.hpp"
#include "util/expects.hpp"

namespace xheal::core {

using graph::Graph;
using graph::NodeId;

namespace {
constexpr std::size_t npos = static_cast<std::size_t>(-1);
}  // namespace

HealingSession::HealingSession(Graph initial, std::unique_ptr<Healer> healer)
    : g_(initial), ref_(std::move(initial)), healer_(std::move(healer)) {
    XHEAL_EXPECTS(healer_ != nullptr);
    pool_pos_.assign(g_.next_id(), npos);
    alive_.reserve(g_.node_count());
    for (NodeId v : g_.nodes()) {
        pool_pos_[v] = alive_.size();
        alive_.push_back(v);
    }
}

NodeId HealingSession::insert_node(const std::vector<NodeId>& neighbors) {
    for (NodeId u : neighbors) XHEAL_EXPECTS(g_.has_node(u));
    NodeId v = g_.add_node();
    ref_.add_node_with_id(v);
    for (NodeId u : neighbors) {
        g_.add_black_edge(v, u);
        ref_.add_black_edge(v, u);
    }
    healer_->on_insert(g_, v);
    if (pool_pos_.size() <= v) pool_pos_.resize(v + 1, npos);
    pool_pos_[v] = alive_.size();
    alive_.push_back(v);
    ++insertions_;
    return v;
}

RepairReport HealingSession::delete_node(NodeId v) { return remove(v, /*staged=*/false); }

RepairReport HealingSession::stage_delete(NodeId v) { return remove(v, /*staged=*/true); }

RepairReport HealingSession::remove(NodeId v, bool staged) {
    XHEAL_EXPECTS(g_.has_node(v));
    deleted_black_degree_.add(static_cast<double>(ref_.degree(v)));
    RepairReport report =
        staged ? healer_->on_delete_staged(g_, v) : healer_->on_delete(g_, v);
    XHEAL_ENSURES(!g_.has_node(v));
    // Swap-remove v from the alive pool: O(1), no materialization.
    std::size_t pos = pool_pos_[v];
    NodeId last = alive_.back();
    alive_[pos] = last;
    pool_pos_[last] = pos;
    alive_.pop_back();
    pool_pos_[v] = npos;
    totals_.accumulate(report);
    ++deletions_;
    return report;
}

RepairReport HealingSession::flush_staged() {
    RepairReport report = healer_->flush_staged(g_);
    totals_.accumulate(report);
    return report;
}

const std::vector<NodeId>& HealingSession::compact() {
    // Compacting with staged repairs parked in the healer would renumber
    // ids out from under the pending units; every caller flushes first and
    // this guard keeps it that way.
    XHEAL_EXPECTS(healer_->staged_count() == 0);
    // Purge: a node deleted from G is never consulted in G' again (its
    // black degree fed A(p) at deletion time), and check_reference_edges
    // only covers edges between survivors — so after the purge both graphs
    // carry the identical live id set and can share one compaction map.
    // This is also what keeps G' itself O(live): the insert-only reference
    // would otherwise accumulate every id (and edge) ever issued.
    for (NodeId v = 0; v < ref_.next_id(); ++v)
        if (ref_.has_node(v) && !g_.has_node(v)) ref_.remove_node(v);
    g_.compact(compact_map_);
    ref_.apply_id_map(compact_map_);
    // Remap the swap-remove pool in place: entry order is part of the
    // deterministic sampling substrate, so only the ids are rewritten.
    for (NodeId& v : alive_) v = compact_map_[v];
    pool_pos_.assign(g_.next_id(), npos);
    for (std::size_t i = 0; i < alive_.size(); ++i) pool_pos_[alive_[i]] = i;
    healer_->on_compact(g_, compact_map_);
    // Post-compact validation: the renumbered cloud claims and the
    // reference-edge guarantee must hold on the new numbering. Compaction
    // is rare (waste-threshold triggered), so the O(clouds + edges) sweep
    // is off the hot path.
    healer_->check_consistency(g_);
    check_reference_edges_present(g_, ref_);
    return compact_map_;
}

}  // namespace xheal::core
