#include "spectral/probes.hpp"

#include <algorithm>
#include <limits>

#include "spectral/lanczos.hpp"

namespace xheal::spectral {

using graph::Graph;
using graph::NodeId;

namespace {

/// The one CSR BFS: floods src's component through `dist` (indexed by
/// dense index; entries != npos count as visited, so a component sweep can
/// flood every source through one array), using `queue` as the work list.
void flood(const CsrGraph& csr, std::uint32_t src, std::vector<std::uint32_t>& dist,
           std::vector<std::uint32_t>& queue) {
    dist[src] = 0;
    queue.clear();
    queue.push_back(src);
    for (std::size_t head = 0; head < queue.size(); ++head) {
        std::uint32_t u = queue[head];
        std::uint32_t du = dist[u];
        for (std::uint32_t v : csr.row(u)) {
            if (dist[v] == CsrGraph::npos) {
                dist[v] = du + 1;
                queue.push_back(v);
            }
        }
    }
}

/// Component count over a built snapshot, reusing the caller's buffers.
std::size_t count_components(const CsrGraph& csr, std::vector<std::uint32_t>& dist,
                             std::vector<std::uint32_t>& queue) {
    dist.assign(csr.size(), CsrGraph::npos);
    std::size_t comps = 0;
    for (std::uint32_t i = 0; i < csr.size(); ++i) {
        if (dist[i] != CsrGraph::npos) continue;
        ++comps;
        flood(csr, i, dist, queue);
    }
    return comps;
}

}  // namespace

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

double ProbeEngine::lambda2(const Graph& g, std::uint64_t seed) {
    if (g.node_count() < 2) return 0.0;
    csr_.build(g);
    return lambda2_csr(csr_, seed);
}

double ProbeEngine::lambda2_csr(const CsrGraph& csr, std::uint64_t seed) {
    if (csr.size() < 2) return 0.0;
    return lambda2_csr_counted(csr, count_components(csr, dist_, queue_), seed);
}

double ProbeEngine::lambda2_csr_counted(const CsrGraph& csr, std::size_t components,
                                        std::uint64_t seed) {
    if (csr.size() < 2 || components > 1) return 0.0;  // the connectivity gate
    // Small graphs exhaust the Krylov space: the cold exact solve, which
    // stays out of the warm-start chain.
    if (csr.size() <= exact_lanczos_steps)
        return lambda2_sparse_csr(csr, seed, exact_lanczos_steps, 1e-9, /*warm=*/false);
    return lambda2_sparse_csr(csr, seed, probe_lanczos_steps, probe_lambda2_tol,
                              /*warm=*/true);
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
    auto result = lanczos_smallest(apply, csr.size(), kernel_, rng, max_iterations,
                                   tolerance, warm_start, &lanczos_);
    if (warm) {
        warm_ids_.assign(csr.nodes().begin(), csr.nodes().end());
        // Swap, not copy: both buffers keep their capacity for the next solve.
        warm_vec_.swap(lanczos_.ritz);
        has_warm_ = true;
    }
    return std::max(0.0, result.value);
}

double ProbeEngine::lambda2_sparse(const Graph& g, std::uint64_t seed,
                                   std::size_t max_iterations, double tolerance) {
    lanczos_.ritz.clear();  // stays empty when the gate returns
    if (g.node_count() < 2) return 0.0;
    csr_.build(g);
    if (count_components(csr_, dist_, queue_) > 1) return 0.0;
    return lambda2_sparse_csr(csr_, seed, max_iterations, tolerance,
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

std::size_t ProbeEngine::component_count(const Graph& g) {
    csr_.build(g);
    return component_count_csr(csr_);
}

std::size_t ProbeEngine::component_count_csr(const CsrGraph& csr) {
    return count_components(csr, dist_, queue_);
}

// ----- stretch -----

double ProbeEngine::sampled_stretch(const Graph& g, const Graph& ref,
                                    std::size_t budget, util::Rng& rng) {
    csr_.build(g);
    ref_csr_.build(ref);
    sample_stretch_sources(csr_, budget, rng, sources_);
    return stretch_over_sources(csr_, ref_csr_, sources_);
}

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
                                         const std::vector<NodeId>& sources) {
    if (csr.size() < 2) return 1.0;

    double worst = 0.0;
    for (NodeId s : sources) {
        std::uint32_t gi = csr.index_of(s);
        std::uint32_t ri = ref_csr.index_of(s);
        if (ri == CsrGraph::npos) continue;  // source unknown to the reference
        dist_.assign(csr.size(), CsrGraph::npos);
        ref_dist_.assign(ref_csr.size(), CsrGraph::npos);
        flood(csr, gi, dist_, queue_);
        flood(ref_csr, ri, ref_dist_, queue_);
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
