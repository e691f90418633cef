// ProbeEngine — the sparse, scratch-reusing metric probe layer that lets
// scenario runs sample spectral and stretch metrics at n = 1e5+.
//
// The engine owns flat BFS/Lanczos scratch and the lambda2 warm-start
// state. Its graph-level probes rebuild a CSR snapshot (csr.hpp) per call,
// for callers that mutate the graph arbitrarily between probes; its
// CSR-level probes take a caller-held snapshot, which the ScenarioRunner
// patches forward from the graph's structure journal (IncrementalSnapshot:
// only the touched rows are rewritten). Buffers only grow, so steady-state
// probing allocates nothing once the population peak has been seen.
//
//   * lambda2()        — algebraic connectivity of the normalized Laplacian.
//                        Dense Jacobi up to `dense_limit` nodes (small
//                        graphs, exact), matrix-free Lanczos on the implicit
//                        CSR operator above it, with the D^{1/2} 1 kernel
//                        deflated. The auto path warm-starts each solve from
//                        the previous sample's Ritz vector when at least
//                        half its support is still alive. Selection is
//                        automatic; the _dense/_sparse entry points force
//                        one path cold (property tests compare them to 1e-6).
//   * component_count() — connected components via CSR BFS (flat arrays, no
//                        hashing), the probe behind `connected`.
//   * sampled_stretch() — the paper's network-stretch metric over a fixed
//                        budget of sampled BFS sources: max over pairs
//                        (s, t), s sampled, of dist_G(s,t) / dist_G'(s,t).
//                        A max over a subset of sources, so the sampled
//                        value never exceeds the exact stretch and reaches
//                        it once the budget covers every live node. Sources
//                        are drawn from the caller's rng (the runner's
//                        independent probe stream), so probe cadence never
//                        perturbs the adversary trace.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "spectral/csr.hpp"
#include "spectral/dense_matrix.hpp"
#include "spectral/lanczos.hpp"
#include "spectral/laplacian.hpp"
#include "util/rng.hpp"

namespace xheal::spectral {

/// A CsrGraph that tracks its own staleness. Callers note() the journal of
/// node ids touched since the last sync; sync() then patches the snapshot
/// forward, falling back to a full rebuild when the snapshot was never
/// built, the journal overflowed, the churn exceeds a quarter of the rows,
/// or the delta violates the patcher's append-only id assumption. Either
/// way the synced arrays are byte-identical to a fresh build.
class IncrementalSnapshot {
public:
    /// Record that `dirty` (a graph journal: unsorted, may repeat, may name
    /// dead ids) happened since the last sync. An overflowed journal is an
    /// unknown delta and forces the next sync to rebuild.
    void note(const graph::Graph& g, const std::vector<graph::NodeId>& dirty,
              bool overflowed) {
        if (&g != graph_ || overflowed) {
            invalidate();
            graph_ = &g;
            return;
        }
        if (!force_rebuild_)
            pending_.insert(pending_.end(), dirty.begin(), dirty.end());
    }

    /// Forget the snapshot; the next sync rebuilds from scratch.
    void invalidate() {
        force_rebuild_ = true;
        pending_.clear();
    }

    /// Bring the snapshot up to date with g.
    void sync(const graph::Graph& g);

    const CsrGraph& csr() const { return csr_; }

    std::uint64_t rebuilds() const { return rebuilds_; }
    std::uint64_t patched_events() const { return patched_events_; }

private:
    CsrGraph csr_;
    const graph::Graph* graph_ = nullptr;
    std::vector<graph::NodeId> pending_;
    bool force_rebuild_ = true;
    std::uint64_t rebuilds_ = 0;
    std::uint64_t patched_events_ = 0;
};

class ProbeEngine {
public:
    /// Lanczos step budget of the auto lambda2() probe. lambda2 of an
    /// expander sits at the edge of the spectral bulk (no eigengap), so the
    /// iteration converges only polynomially there; 64 steps land within
    /// ~0.5% of the exhaustive answer at n = 1e5 for ~1/6 of the cost, which
    /// is probe-grade accuracy. The Ritz value approaches lambda2 from
    /// above, so probe readings are a slight over-estimate.
    static constexpr std::size_t probe_lanczos_steps = 64;

    /// Convergence tolerance of the auto lambda2() probe. At probe scale the
    /// bottom of the spectrum is a cluster (edge of the bulk), so the
    /// intrinsic bias of the step budget above is already ~1e-3; asking
    /// Lanczos for more digits than that burns the full budget every sample
    /// for accuracy the probe cannot deliver anyway. 2e-3 stops the cold
    /// solve once the Ritz value stalls at probe-grade accuracy and lets a
    /// warm-started solve exit after a handful of iterations. Threshold
    /// expectations (`expect lambda2 >= x`) sit orders of magnitude away.
    static constexpr double probe_lambda2_tol = 2e-3;

    /// Exhaustive budget used by lambda2_sparse(): below this many nodes the
    /// Krylov space is exhausted and the value is exact to round-off, which
    /// is what the sparse-vs-dense property tests compare at 1e-6.
    static constexpr std::size_t exact_lanczos_steps = 160;

    /// `dense_limit`: node count at or below which lambda2() uses the
    /// dense Jacobi path.
    explicit ProbeEngine(std::size_t dense_limit = dense_spectral_limit)
        : dense_limit_(dense_limit) {}

    /// lambda2 of the normalized Laplacian; 0 for < 2 nodes or disconnected
    /// graphs. Deterministic given the seed. Auto-selects dense Jacobi below
    /// dense_limit() nodes and budgeted Lanczos (probe_lanczos_steps) above,
    /// warm-started from the previous auto solve when possible.
    double lambda2(const graph::Graph& g, std::uint64_t seed = 12345);

    /// Force the dense Jacobi path (any size; O(n^3), small graphs only).
    double lambda2_dense(const graph::Graph& g);

    /// Force the matrix-free CSR Lanczos path (any size >= 2) with an
    /// explicit step budget (exhaustive by default). Always cold-starts.
    double lambda2_sparse(const graph::Graph& g, std::uint64_t seed = 12345,
                          std::size_t max_iterations = exact_lanczos_steps,
                          double tolerance = 1e-9);

    /// Connected-component count via CSR BFS (0 for the empty graph).
    std::size_t component_count(const graph::Graph& g);

    /// Sampled network stretch of g against the insert-only reference ref:
    /// max over sampled sources s (budget many; all live nodes when budget
    /// >= |V|) and all targets t of dist_g(s,t) / dist_ref(s,t), counting
    /// pairs alive in both graphs and connected in ref. +infinity when such
    /// a pair is disconnected in g; never below 1.
    double sampled_stretch(const graph::Graph& g, const graph::Graph& ref,
                           std::size_t budget, util::Rng& rng);

    // ----- CSR-level probe entry points -----
    //
    // The same probes over caller-held snapshots: the scenario runner keeps
    // IncrementalSnapshots outside the engine and hands the frozen CSR
    // arrays here, while the engine contributes its scratch buffers and the
    // lambda2 warm-start chain. The graph-level probes above are thin
    // wrappers that rebuild the engine's own snapshot and then call these —
    // both paths run the identical code on byte-identical arrays
    // (csr_patch_test's patch == build guarantee). Two engines may probe
    // the same frozen snapshot concurrently: each owns all of its scratch.

    /// lambda2 of a frozen snapshot; auto-selects the dense scratch-reusing
    /// Jacobi path at or below dense_limit() rows and warm-started budgeted
    /// Lanczos above it.
    double lambda2_csr(const CsrGraph& csr, std::uint64_t seed = 12345);

    /// lambda2_csr for a caller that already counted csr's connected
    /// components (the `connected` probe of the same sample): skips the
    /// sparse path's connectivity-gate BFS. Bitwise equal to lambda2_csr.
    double lambda2_csr_counted(const CsrGraph& csr, std::size_t components,
                               std::uint64_t seed = 12345);

    /// Connected-component count of a frozen snapshot.
    std::size_t component_count_csr(const CsrGraph& csr);

    /// Sampled stretch over frozen snapshots of g and the reference.
    double sampled_stretch_csr(const CsrGraph& csr, const CsrGraph& ref_csr,
                               std::size_t budget, util::Rng& rng);

    /// The stretch probe's source-sampling half: min(budget, n) distinct
    /// sources by partial Fisher-Yates over the snapshot's live pool (no
    /// draws when budget >= n — the exact all-sources sweep — or n < 2).
    /// Factored out so the runner can draw sources on the stepping thread —
    /// keeping the probe stream's draw order fixed — while the BFS sweeps
    /// run on a helper task.
    static void sample_stretch_sources(const CsrGraph& csr, std::size_t budget,
                                       util::Rng& rng,
                                       std::vector<graph::NodeId>& out);

    /// The BFS half of the stretch probe over a pre-sampled source list.
    double stretch_over_sources(const CsrGraph& csr, const CsrGraph& ref_csr,
                                const std::vector<graph::NodeId>& sources);

    /// Id-compaction support: the warm-start Ritz vector is permuted
    /// through the old->new map so the next lambda2 solve still
    /// warm-starts — compaction must not cost a cold solve. Entries of
    /// retired ids (dead since the last sample) are dropped; values are
    /// untouched, so the permuted vector scatters exactly as the old one
    /// would onto surviving rows.
    void on_compact(const std::vector<graph::NodeId>& old_to_new) {
        if (!has_warm_) return;
        std::size_t keep = 0;
        for (std::size_t i = 0; i < warm_ids_.size(); ++i) {
            graph::NodeId id = warm_ids_[i];
            graph::NodeId to =
                id < old_to_new.size() ? old_to_new[id] : graph::invalid_node;
            if (to == graph::invalid_node) continue;
            warm_ids_[keep] = to;
            warm_vec_[keep] = warm_vec_[i];
            ++keep;
        }
        warm_ids_.resize(keep);
        warm_vec_.resize(keep);
        has_warm_ = keep != 0;
    }

    std::size_t dense_limit() const { return dense_limit_; }

private:
    /// lambda2 via CSR Lanczos, optionally warm-started from (and feeding)
    /// the previous auto solve's Ritz vector. The caller has already gated
    /// on connectivity.
    double lambda2_sparse_csr(const CsrGraph& csr, std::uint64_t seed,
                              std::size_t max_iterations, double tolerance,
                              bool warm);

    /// Dense Jacobi over the snapshot's normalized Laplacian, materialized
    /// into the reused scratch matrix (no per-call allocation at capacity).
    double lambda2_dense_csr(const CsrGraph& csr);

    /// Scatter the stored Ritz vector onto csr's dense indexing (zeros for
    /// rows with no stored entry). Returns null when absent or fewer than
    /// half of csr's rows carry a stored value — too stale to help.
    const std::vector<double>* build_warm_start(const CsrGraph& csr);

    std::size_t dense_limit_;
    /// Snapshots the graph-level probes rebuild on every call.
    CsrGraph csr_;
    CsrGraph ref_csr_;
    std::vector<double> kernel_;
    std::vector<std::uint32_t> dist_;
    std::vector<std::uint32_t> ref_dist_;
    std::vector<std::uint32_t> queue_;
    std::vector<graph::NodeId> sources_;
    // Warm-start state: the previous auto-path Ritz vector keyed by node id.
    std::vector<graph::NodeId> warm_ids_;
    std::vector<double> warm_vec_;
    std::vector<double> start_;
    bool has_warm_ = false;
    /// Lanczos basis, iteration vectors and Ritz output, reused so a
    /// steady-state solve allocates nothing.
    LanczosWorkspace lanczos_;
    // Dense-path scratch: work matrix + eigenvalue buffer, reused across
    // samples so the small-graph fallback stops re-allocating O(n^2) per
    // probe. `scaled_` is the spmv's D^{-1/2}x pass, owned here so two
    // engines can probe two snapshots concurrently.
    DenseMatrix dense_scratch_;
    std::vector<double> dense_values_;
    std::vector<double> scaled_;
};

}  // namespace xheal::spectral
