#include "spectral/csr.hpp"

#include <cmath>

namespace xheal::spectral {

using graph::NodeId;

void CsrGraph::build(const graph::Graph& g) {
    nodes_.clear();
    nodes_.reserve(g.node_count());
    position_.assign(g.next_id(), npos);
    for (NodeId v : g.nodes()) {
        position_[v] = static_cast<std::uint32_t>(nodes_.size());
        nodes_.push_back(v);
    }

    std::size_t n = nodes_.size();
    offsets_.resize(n + 1);
    inv_sqrt_deg_.resize(n);
    offsets_[0] = 0;
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t deg = g.degree(nodes_[i]);
        offsets_[i + 1] = offsets_[i] + static_cast<std::uint32_t>(deg);
        inv_sqrt_deg_[i] = deg > 0 ? 1.0 / std::sqrt(static_cast<double>(deg)) : 0.0;
    }

    targets_.resize(offsets_[n]);
    for (std::size_t i = 0; i < n; ++i) {
        std::uint32_t* out = targets_.data() + offsets_[i];
        for (NodeId u : g.neighbors(nodes_[i])) *out++ = position_[u];
    }
}

bool CsrGraph::patch(const graph::Graph& g, const std::vector<NodeId>& dirty) {
    std::size_t old_n = nodes_.size();

    // Classify the dirty ids against the snapshot: rows to rebuild (alive),
    // rows to drop (removed), and ids born since the snapshot. Ids that were
    // born and deleted inside the window are skipped entirely.
    added_.clear();
    row_state_.assign(old_n, 0);  // 0 = clean, 1 = dirty, 2 = removed
    for (NodeId v : dirty) {
        std::uint32_t at = index_of(v);
        bool alive = g.has_node(v);
        if (at == npos) {
            if (alive) added_.push_back(v);
        } else {
            row_state_[at] = alive ? 1 : 2;
        }
    }
    // Ids are allocated monotonically and never reused, so additions must
    // append past the snapshot's id range; a gap-filling add_node_with_id
    // would break the ascending node order — fall back to a full rebuild.
    if (!added_.empty() && old_n > 0 && added_.front() <= nodes_.back()) return false;

    // New node list plus the old-dense -> new-dense renumbering. Surviving
    // rows keep their relative order; additions append, so ascending order
    // (and therefore equality with a fresh build) is preserved.
    old_to_new_.resize(old_n);
    nodes_scratch_.clear();
    nodes_scratch_.reserve(old_n + added_.size());
    for (std::size_t i = 0; i < old_n; ++i) {
        if (row_state_[i] == 2) {
            old_to_new_[i] = npos;
            continue;
        }
        old_to_new_[i] = static_cast<std::uint32_t>(nodes_scratch_.size());
        nodes_scratch_.push_back(nodes_[i]);
    }
    for (NodeId v : added_) nodes_scratch_.push_back(v);
    std::size_t n = nodes_scratch_.size();

    position_.assign(g.next_id(), npos);
    for (std::size_t i = 0; i < n; ++i)
        position_[nodes_scratch_[i]] = static_cast<std::uint32_t>(i);

    // Prefix sums and degree weights under the new numbering. Clean rows
    // read their degree from the old offsets (saved aside — offsets_ is
    // rewritten in this pass); dirty and added rows consult g.
    offsets_old_.assign(offsets_.begin(), offsets_.end());
    offsets_.resize(n + 1);
    inv_sqrt_deg_.resize(n);
    offsets_[0] = 0;
    std::size_t out = 0;
    for (std::size_t i = 0; i < old_n; ++i) {
        if (row_state_[i] == 2) continue;
        std::size_t deg = row_state_[i] == 0
                              ? offsets_old_[i + 1] - offsets_old_[i]
                              : g.degree(nodes_[i]);
        offsets_[out + 1] = offsets_[out] + static_cast<std::uint32_t>(deg);
        inv_sqrt_deg_[out] = deg > 0 ? 1.0 / std::sqrt(static_cast<double>(deg)) : 0.0;
        ++out;
    }
    for (NodeId v : added_) {
        std::size_t deg = g.degree(v);
        offsets_[out + 1] = offsets_[out] + static_cast<std::uint32_t>(deg);
        inv_sqrt_deg_[out] = deg > 0 ? 1.0 / std::sqrt(static_cast<double>(deg)) : 0.0;
        ++out;
    }

    // Targets into the double buffer: clean rows renumber their old entries
    // (every neighbor of a clean row survived — otherwise the row would be
    // dirty — and the renumbering is monotone, so the ascending order is
    // exactly the fresh build's); dirty and added rows rebuild from g.
    targets_scratch_.resize(offsets_[n]);
    std::uint32_t* write = targets_scratch_.data();
    for (std::size_t i = 0; i < old_n; ++i) {
        if (row_state_[i] == 2) continue;
        if (row_state_[i] == 0) {
            for (std::uint32_t k = offsets_old_[i]; k < offsets_old_[i + 1]; ++k)
                *write++ = old_to_new_[targets_[k]];
        } else {
            for (NodeId u : g.neighbors(nodes_[i])) *write++ = position_[u];
        }
    }
    for (NodeId v : added_) {
        for (NodeId u : g.neighbors(v)) *write++ = position_[u];
    }

    nodes_.swap(nodes_scratch_);
    targets_.swap(targets_scratch_);
    return true;
}

void CsrGraph::apply_normalized_laplacian(const std::vector<double>& x,
                                          std::vector<double>& y,
                                          std::vector<double>& scaled) const {
    std::size_t n = nodes_.size();
    scaled.resize(n);
    const double* isd = inv_sqrt_deg_.data();
    for (std::size_t i = 0; i < n; ++i) scaled[i] = isd[i] * x[i];

    const std::uint32_t* tg = targets_.data();
    const double* z = scaled.data();
    for (std::size_t i = 0; i < n; ++i) {
        std::uint32_t begin = offsets_[i], end = offsets_[i + 1];
        if (begin == end) {
            y[i] = 0.0;  // isolated vertex: zero row
            continue;
        }
        // Four independent accumulators over a 4-wide block of the row:
        // the gathers of one block have no dependency on each other, which
        // is what lets the autovectorizer (or just the OoO core) overlap
        // them. Portable scalar code — no intrinsics, no pragmas.
        double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
        std::uint32_t k = begin;
        for (; k + 4 <= end; k += 4) {
            a0 += z[tg[k]];
            a1 += z[tg[k + 1]];
            a2 += z[tg[k + 2]];
            a3 += z[tg[k + 3]];
        }
        for (; k < end; ++k) a0 += z[tg[k]];
        y[i] = x[i] - isd[i] * ((a0 + a1) + (a2 + a3));
    }
}

void CsrGraph::normalized_kernel(std::vector<double>& out) const {
    std::size_t n = nodes_.size();
    out.resize(n);
    double sq = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        double entry = inv_sqrt_deg_[i] > 0.0 ? 1.0 / inv_sqrt_deg_[i] : 0.0;
        out[i] = entry;
        sq += entry * entry;
    }
    if (sq <= 0.0) {
        out.clear();
        return;
    }
    double inv = 1.0 / std::sqrt(sq);
    for (double& x : out) x *= inv;
}

}  // namespace xheal::spectral
