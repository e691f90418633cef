// ProbeEngine — the sparse, scratch-reusing metric probe layer that lets
// scenario runs sample spectral and stretch metrics at n = 1e5+.
//
// The engine owns flat BFS/Lanczos scratch and the lambda2 warm-start
// state. Its probes take a caller-held CSR snapshot (csr.hpp), which the
// ScenarioRunner patches forward from the graph's structure journal
// (IncrementalSnapshot: only the touched rows are rewritten); the one
// graph-level entry, lambda2_sparse(), builds the engine's own snapshot for
// spectral::lambda2, spectral::fiedler and the forensics lambda2-floor
// oracle. Buffers only grow, so
// steady-state probing allocates nothing once the population peak has been
// seen.
//
//   * lambda2_csr()    — algebraic connectivity of the normalized Laplacian
//                        by matrix-free Lanczos on the implicit CSR
//                        operator, with the D^{1/2} 1 kernel deflated — the
//                        one runtime eigensolver at every size. Only the
//                        step budget depends on n: up to
//                        exact_lanczos_steps nodes the Krylov space is
//                        exhausted and the cold solve is exact (bitwise
//                        spectral::lambda2); above it a budgeted solve
//                        warm-starts from the previous sample's Ritz vector
//                        when at least half its support is still alive.
//                        Dense Jacobi (laplacian_spectrum, in the tests'
//                        support library) is the test reference only.
//   * component_count_csr() — connected components via the CSR BFS
//                        (bfs_distances' kernel over one visited bitmap, no
//                        hashing), the probe behind `connected`.
//   * sample_stretch_sources() + stretch_over_sources() — the paper's
//                        network-stretch metric over a fixed budget of
//                        sampled BFS sources: max over pairs (s, t), s
//                        sampled, of dist_G(s,t) / dist_G'(s,t). A max over
//                        a subset of sources, so the sampled value never
//                        exceeds the exact stretch (graph::stretch_vs) and
//                        reaches it once the budget covers every live node.
//                        Sources are drawn from the caller's rng (the
//                        runner's independent probe stream), so probe
//                        cadence never perturbs the adversary trace.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "spectral/csr.hpp"
#include "spectral/lanczos.hpp"
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

/// BFS scratch a ProbeEngine owns: the work queue (the nodes a flood
/// reached, level by level) and two bitmaps over the dense indices, one bit
/// per node — visited, and the frontier of a bottom-up level.
struct BfsScratch {
    std::vector<std::uint32_t> queue;
    std::vector<std::uint64_t> visited;
    std::vector<std::uint64_t> frontier;
};

/// Hop distances from dense index src over csr, written into dist by dense
/// index (npos where unreachable): the probes' one BFS, direction-optimizing
/// (probes.cpp), the kernel under the stretch sweep and, without the
/// distances, the component count.
void bfs_distances(const CsrGraph& csr, std::uint32_t src, BfsScratch& scratch,
                   std::vector<std::uint32_t>& dist);

class ProbeEngine {
public:
    /// Lanczos step budget of the lambda2_csr() probe. lambda2 of an
    /// expander sits at the edge of the spectral bulk (no eigengap), so the
    /// iteration converges only polynomially there; 64 steps land within
    /// ~0.5% of the exhaustive answer at n = 1e5 for ~1/6 of the cost, which
    /// is probe-grade accuracy. The Ritz value approaches lambda2 from
    /// above, so probe readings are over-estimates. That they are slight
    /// holds on expanders only: against the exhaustive solve, xheal-repaired
    /// stars of 256-4096 leaves read 0.4-2.6% high, but tree-repaired ones
    /// (lambda2 of order 1/n) read 2.3x high at 256 leaves, 7.2x at 1024 and
    /// 28x at 4096, where the probe stalls near 3.5e-3.
    static constexpr std::size_t probe_lanczos_steps = 64;

    /// Convergence tolerance of the lambda2_csr() probe. At probe scale the
    /// bottom of the spectrum is a cluster (edge of the bulk), so the
    /// intrinsic bias of the step budget above is already ~1e-3; asking
    /// Lanczos for more digits than that burns the full budget every sample
    /// for accuracy the probe cannot deliver anyway. 2e-3 stops the cold
    /// solve once the Ritz value stalls at probe-grade accuracy and lets a
    /// warm-started solve exit after a handful of iterations. On expanders,
    /// threshold expectations (`expect lambda2 >= x`) sit orders of
    /// magnitude away. On non-expanders above exact_lanczos_steps nodes a
    /// threshold must sit far above about 1e-2, or the over-read above
    /// passes a collapsed graph; a check that must judge such a graph runs
    /// lambda2_sparse (as the forensics lambda2-floor oracle does).
    static constexpr double probe_lambda2_tol = 2e-3;

    /// Exhaustive budget used by lambda2_sparse(), and by lambda2_csr() on
    /// graphs of at most this many nodes: there the Krylov space is
    /// exhausted and the value is exact to round-off, which is what the
    /// property tests compare against the Jacobi reference at 1e-6.
    static constexpr std::size_t exact_lanczos_steps = 160;

    /// Convergence tolerance of every exhaustive solve (lambda2_sparse(),
    /// and lambda2_csr() at or below exact_lanczos_steps nodes).
    static constexpr double exact_lambda2_tol = 1e-9;

    /// Cold exhaustive CSR Lanczos solve (any size >= 2): what
    /// spectral::lambda2 and spectral::fiedler run.
    double lambda2_sparse(const graph::Graph& g, std::uint64_t seed = 12345);

    /// Right after lambda2_sparse(): the unit Ritz vector of its solve and
    /// the node ids its entries align with (ascending). The vector is empty
    /// when the call returned at its < 2 node / disconnected gate.
    const std::vector<double>& ritz_vector() const { return lanczos_.ritz; }
    const std::vector<graph::NodeId>& ritz_nodes() const { return csr_.nodes(); }

    // ----- CSR-level probe entry points -----
    //
    // The scenario runner keeps IncrementalSnapshots outside the engine and
    // hands the frozen CSR arrays here, while the engine contributes its
    // scratch buffers and the lambda2 warm-start chain. A patched snapshot
    // is byte-identical to a fresh build (csr_patch_test), so a caller with
    // no journal builds a CsrGraph and probes it the same way. Several
    // engines may probe the same frozen snapshot concurrently (the runner's
    // sample runs three): each owns all of its scratch.

    /// lambda2 of a frozen snapshot: the exhaustive cold solve at or below
    /// exact_lanczos_steps rows, warm-started budgeted Lanczos above. Gates
    /// on connectivity first, so a disconnected snapshot costs one BFS.
    double lambda2_csr(const CsrGraph& csr, std::uint64_t seed = 12345);

    /// lambda2_csr in two steps, for a caller that counts csr's components
    /// elsewhere (the sample's other task) while the solve runs. The solve
    /// runs with no connectivity gate and leaves a budgeted solve's Ritz
    /// vector pending; the commit, on the same csr, applies the gate: one
    /// component commits the pending vector to the warm-start chain and
    /// returns `solved`, anything else discards it and returns 0, leaving
    /// the chain as lambda2_csr leaves it. lambda2_commit(csr, components,
    /// lambda2_solve(csr)) is bitwise lambda2_csr(csr); a disconnected
    /// snapshot wastes one solve. A commit with one component must follow
    /// its solve with no other lambda2 call between.
    double lambda2_solve(const CsrGraph& csr, std::uint64_t seed = 12345);
    double lambda2_commit(const CsrGraph& csr, std::size_t components, double solved);

    /// Connected-component count of a frozen snapshot.
    std::size_t component_count_csr(const CsrGraph& csr);

    /// The stretch probe's source-sampling half: min(budget, n) distinct
    /// sources by partial Fisher-Yates over the snapshot's live pool (no
    /// draws when budget >= n — the exact all-sources sweep — or n < 2).
    /// Factored out so the runner can draw sources on the stepping thread —
    /// keeping the probe stream's draw order fixed — while the BFS sweeps
    /// run on helper tasks.
    static void sample_stretch_sources(const CsrGraph& csr, std::size_t budget,
                                       util::Rng& rng,
                                       std::vector<graph::NodeId>& out);

    /// The BFS half of the stretch probe over a pre-sampled source list.
    /// A max over the sources, so sweeps over the parts of a split list
    /// combine by max into the whole list's value.
    double stretch_over_sources(const CsrGraph& csr, const CsrGraph& ref_csr,
                                std::span<const graph::NodeId> sources);

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

private:
    /// lambda2 via CSR Lanczos, optionally warm-started from the committed
    /// Ritz vector; the solve's own Ritz vector is left in lanczos_.ritz.
    double lambda2_sparse_csr(const CsrGraph& csr, std::uint64_t seed,
                              std::size_t max_iterations, double tolerance,
                              bool warm);

    /// Scatter the stored Ritz vector onto csr's dense indexing (zeros for
    /// rows with no stored entry). Returns null when absent or fewer than
    /// half of csr's rows carry a stored value — too stale to help.
    const std::vector<double>* build_warm_start(const CsrGraph& csr);

    /// The snapshot lambda2_sparse() rebuilds on every call.
    CsrGraph csr_;
    std::vector<double> kernel_;
    std::vector<std::uint32_t> dist_;
    std::vector<std::uint32_t> ref_dist_;
    BfsScratch bfs_;
    // Warm-start state: the previous budgeted solve's Ritz vector keyed by
    // node id.
    std::vector<graph::NodeId> warm_ids_;
    std::vector<double> warm_vec_;
    std::vector<double> start_;
    bool has_warm_ = false;
    /// Lanczos basis, iteration vectors and Ritz output, reused so a
    /// steady-state solve allocates nothing.
    LanczosWorkspace lanczos_;
    /// The spmv's D^{-1/2}x pass, owned here so engines can probe
    /// snapshots concurrently.
    std::vector<double> scaled_;
};

}  // namespace xheal::spectral
