#include "spectral/probes.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "spectral/lanczos.hpp"

namespace xheal::spectral {

using graph::Graph;
using graph::NodeId;

namespace {

constexpr std::uint64_t bit(std::uint32_t v) { return std::uint64_t{1} << (v & 63); }

/// Size s for one flood sweep over an n-node snapshot and mark every node
/// unvisited. The padding bits past n read as visited, so the bottom-up
/// scan needs no tail mask. Buffers only grow.
void reset(std::size_t n, BfsScratch& s) {
    std::size_t words = (n + 63) / 64;
    s.visited.assign(words, 0);
    if (n % 64 != 0) s.visited.back() = ~std::uint64_t{0} << (n % 64);
    if (s.frontier.size() < words) s.frontier.resize(words);
    if (s.queue.size() < n) s.queue.resize(n);
}

/// The one CSR BFS, direction-optimizing (Beamer, Asanovic and Patterson,
/// SC 2012). Floods src's component, marking it in s.visited and, when
/// `dist` is non-null, writing each reached node's hop count (entries of
/// unreached nodes are left alone). Nodes already marked are never
/// entered, so a component sweep floods every source through one bitmap.
///
/// Each level runs one of two steps over the frontier q[head, level_end):
///   * top-down: expand every frontier row, with a two-stage software
///     prefetch (the offsets of q[i+16], the row of q[i+8]) — the rows are
///     random fetches and nothing else bounds the step;
///   * bottom-up: on the heavy middle levels of an expander, scan the
///     unvisited nodes instead, each stopping at its first neighbour in a
///     frontier bitmap — most stop after a probe or two, and a fetched row
///     is mostly skipped rather than walked.
/// Bottom-up runs when the frontier's arcs outweigh a quarter of the
/// unvisited nodes' arcs and the frontier holds more than 1/24 of the
/// nodes. Both steps assign exactly the level number, so distances are
/// those of a textbook BFS. `arcs_left` is the summed degree of the
/// unvisited nodes on entry; the same sum on exit is returned.
std::size_t flood(const CsrGraph& csr, std::uint32_t src, std::uint32_t* dist,
                  BfsScratch& s, std::size_t arcs_left) {
    const std::uint32_t* off = csr.offsets().data();
    const std::uint32_t* tgt = csr.targets().data();
    const std::size_t n = csr.size();
    const std::size_t words = s.visited.size();
    std::uint64_t* visited = s.visited.data();
    std::uint32_t* q = s.queue.data();

    visited[src >> 6] |= bit(src);
    if (dist != nullptr) dist[src] = 0;
    q[0] = src;
    std::size_t head = 0, tail = 1;
    std::size_t frontier_arcs = off[src + 1] - off[src];
    arcs_left -= frontier_arcs;
    for (std::uint32_t level = 1; head < tail; ++level) {
        const std::size_t level_end = tail;
        std::size_t next_arcs = 0;
        if (frontier_arcs * 4 > arcs_left && (level_end - head) * 24 > n) {
            std::uint64_t* frontier = s.frontier.data();
            std::fill(frontier, frontier + words, 0);
            for (std::size_t i = head; i < level_end; ++i) frontier[q[i] >> 6] |= bit(q[i]);
            for (std::size_t w = 0; w < words; ++w) {
                for (std::uint64_t todo = ~visited[w]; todo != 0; todo &= todo - 1) {
                    auto v = static_cast<std::uint32_t>(w * 64 + std::countr_zero(todo));
                    for (std::uint32_t k = off[v]; k < off[v + 1]; ++k) {
                        std::uint32_t u = tgt[k];
                        if ((frontier[u >> 6] & bit(u)) == 0) continue;
                        visited[w] |= bit(v);
                        if (dist != nullptr) dist[v] = level;
                        q[tail++] = v;
                        next_arcs += off[v + 1] - off[v];
                        break;
                    }
                }
            }
        } else {
            for (std::size_t i = head; i < level_end; ++i) {
                if (i + 16 < tail) __builtin_prefetch(off + q[i + 16]);
                if (i + 8 < tail) __builtin_prefetch(tgt + off[q[i + 8]]);
                std::uint32_t u = q[i];
                for (std::uint32_t k = off[u]; k < off[u + 1]; ++k) {
                    std::uint32_t v = tgt[k];
                    if ((visited[v >> 6] & bit(v)) != 0) continue;
                    visited[v >> 6] |= bit(v);
                    if (dist != nullptr) dist[v] = level;
                    q[tail++] = v;
                    next_arcs += off[v + 1] - off[v];
                }
            }
        }
        head = level_end;
        arcs_left -= next_arcs;
        frontier_arcs = next_arcs;
    }
    return arcs_left;
}

/// Component count over a built snapshot: one flood per unvisited node,
/// all through one visited bitmap.
std::size_t count_components(const CsrGraph& csr, BfsScratch& s) {
    reset(csr.size(), s);
    std::size_t arcs_left = csr.targets().size();
    std::size_t comps = 0;
    for (std::size_t w = 0; w < s.visited.size(); ++w) {
        while (~s.visited[w] != 0) {
            auto v = static_cast<std::uint32_t>(w * 64 + std::countr_zero(~s.visited[w]));
            ++comps;
            arcs_left = flood(csr, v, nullptr, s, arcs_left);
        }
    }
    return comps;
}

}  // namespace

void bfs_distances(const CsrGraph& csr, std::uint32_t src, BfsScratch& scratch,
                   std::vector<std::uint32_t>& dist) {
    dist.assign(csr.size(), CsrGraph::npos);
    reset(csr.size(), scratch);
    flood(csr, src, dist.data(), scratch, csr.targets().size());
}

void IncrementalSnapshot::sync(const Graph& g) {
    if (force_rebuild_ || graph_ != &g) {
        csr_.build(g);
        graph_ = &g;
        force_rebuild_ = false;
        pending_.clear();
        ++rebuilds_;
        return;
    }
    if (pending_.empty()) return;  // snapshot already current
    std::sort(pending_.begin(), pending_.end());
    pending_.erase(std::unique(pending_.begin(), pending_.end()), pending_.end());
    // Patching rewrites only the touched rows but still scans every clean
    // row once to renumber; past a quarter of the rows dirty, the fresh
    // build is no slower and simpler, so rebuild there (and when the delta
    // breaks the patcher's append-only id assumption).
    if (pending_.size() * 4 > csr_.size() || !csr_.patch(g, pending_)) {
        csr_.build(g);
        ++rebuilds_;
    } else {
        patched_events_ += pending_.size();
    }
    pending_.clear();
}

// ----- lambda2 -----

double ProbeEngine::lambda2_csr(const CsrGraph& csr, std::uint64_t seed) {
    if (csr.size() < 2) return 0.0;
    std::size_t components = count_components(csr, bfs_);
    if (components > 1) return 0.0;  // the gate first: no solve to discard
    return lambda2_commit(csr, components, lambda2_solve(csr, seed));
}

double ProbeEngine::lambda2_solve(const CsrGraph& csr, std::uint64_t seed) {
    if (csr.size() < 2) return 0.0;
    // Small graphs exhaust the Krylov space: the cold exact solve, which
    // stays out of the warm-start chain.
    if (csr.size() <= exact_lanczos_steps)
        return lambda2_sparse_csr(csr, seed, exact_lanczos_steps, exact_lambda2_tol,
                                  /*warm=*/false);
    return lambda2_sparse_csr(csr, seed, probe_lanczos_steps, probe_lambda2_tol,
                              /*warm=*/true);
}

double ProbeEngine::lambda2_commit(const CsrGraph& csr, std::size_t components,
                                   double solved) {
    if (components != 1) return 0.0;  // the connectivity gate
    if (csr.size() > exact_lanczos_steps) {  // a budgeted solve: feed the chain
        warm_ids_.assign(csr.nodes().begin(), csr.nodes().end());
        // Swap, not copy: both buffers keep their capacity for the next solve.
        warm_vec_.swap(lanczos_.ritz);
        has_warm_ = true;
    }
    return solved;
}

double ProbeEngine::lambda2_sparse_csr(const CsrGraph& csr, std::uint64_t seed,
                                       std::size_t max_iterations, double tolerance,
                                       bool warm) {
    csr.normalized_kernel(kernel_);
    util::Rng rng(seed);
    LinearOperator apply = [this, &csr](const std::vector<double>& x,
                                        std::vector<double>& y) {
        csr.apply_normalized_laplacian(x, y, scaled_);
    };
    const std::vector<double>* warm_start = warm ? build_warm_start(csr) : nullptr;
    auto result = lanczos_smallest(apply, csr.size(), kernel_, rng, lanczos_,
                                   max_iterations, tolerance, warm_start);
    return std::max(0.0, result.value);
}

double ProbeEngine::lambda2_sparse(const Graph& g, std::uint64_t seed) {
    lanczos_.ritz.clear();  // stays empty when the gate returns
    if (g.node_count() < 2) return 0.0;
    csr_.build(g);
    if (count_components(csr_, bfs_) > 1) return 0.0;
    return lambda2_sparse_csr(csr_, seed, exact_lanczos_steps, exact_lambda2_tol,
                              /*warm=*/false);
}

const std::vector<double>* ProbeEngine::build_warm_start(const CsrGraph& csr) {
    if (!has_warm_) return nullptr;
    std::size_t n = csr.size();
    start_.assign(n, 0.0);
    // Both id lists are ascending; merge the stored vector onto the current
    // dense numbering, zero-filling rows born since the previous solve.
    const auto& ids = csr.nodes();
    std::size_t matched = 0, w = 0;
    for (std::size_t i = 0; i < n; ++i) {
        while (w < warm_ids_.size() && warm_ids_[w] < ids[i]) ++w;
        if (w == warm_ids_.size()) break;
        if (warm_ids_[w] == ids[i]) {
            start_[i] = warm_vec_[w];
            ++matched;
        }
    }
    return matched * 2 >= n ? &start_ : nullptr;
}

// ----- components -----

std::size_t ProbeEngine::component_count_csr(const CsrGraph& csr) {
    return count_components(csr, bfs_);
}

// ----- stretch -----

void ProbeEngine::sample_stretch_sources(const CsrGraph& csr, std::size_t budget,
                                         util::Rng& rng, std::vector<NodeId>& out) {
    std::size_t n = csr.size();
    out.clear();
    if (n < 2) return;  // stretch degenerates to 1.0; draw nothing
    // Sample `budget` distinct sources by partial Fisher-Yates over the live
    // pool; budget >= n degenerates to the exact all-sources sweep.
    out.assign(csr.nodes().begin(), csr.nodes().end());
    std::size_t k = std::min(budget, n);
    if (k < n) {
        for (std::size_t i = 0; i < k; ++i) {
            std::size_t j = i + rng.index(n - i);
            std::swap(out[i], out[j]);
        }
        out.resize(k);
    }
}

double ProbeEngine::stretch_over_sources(const CsrGraph& csr, const CsrGraph& ref_csr,
                                         std::span<const NodeId> sources) {
    if (csr.size() < 2) return 1.0;

    double worst = 0.0;
    for (NodeId s : sources) {
        std::uint32_t gi = csr.index_of(s);
        std::uint32_t ri = ref_csr.index_of(s);
        if (ri == CsrGraph::npos) continue;  // source unknown to the reference
        bfs_distances(csr, gi, bfs_, dist_);
        bfs_distances(ref_csr, ri, bfs_, ref_dist_);
        const auto& ref_nodes = ref_csr.nodes();
        for (std::size_t j = 0; j < ref_nodes.size(); ++j) {
            std::uint32_t rd = ref_dist_[j];
            if (rd == CsrGraph::npos || rd == 0) continue;  // unreachable or s itself
            std::uint32_t ti = csr.index_of(ref_nodes[j]);
            if (ti == CsrGraph::npos) continue;  // deleted nodes don't count
            std::uint32_t gd = dist_[ti];
            if (gd == CsrGraph::npos) return std::numeric_limits<double>::infinity();
            worst = std::max(worst,
                             static_cast<double>(gd) / static_cast<double>(rd));
        }
    }
    return std::max(worst, 1.0);
}

}  // namespace xheal::spectral
