// Invariant checks asserted by tests and failure-injection runs. Every
// check throws util::ContractViolation with a description on failure.
// InvariantSuite bundles the same checks into a non-throwing oracle set for
// the trace-forensics layer (trace_tools), which must keep executing after
// a violation to record *where* a candidate event stream went wrong.
//
// The row-local checks also come in a scoped form that covers only a set
// of rows: ascending, duplicate-free node ids, dead ids allowed (a dead
// row holds nothing; its live neighbors' rows carry what changed).
// TouchedRows collects the rows a session touched since the previous check,
// and a scoped check over them proves that every invariant that held then
// still holds (DESIGN.md decision 7).
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "graph/graph.hpp"

namespace xheal::core {

/// Adjacency mirror symmetry, claim mirror equality, edge-count agreement,
/// strictly ascending rows, no self-loops, every edge has at least one
/// claim. One ascending pass; each entry above its row's node finds its
/// mirror through a per-node cursor into the mirror row, no point lookups,
/// and the entries below are matched by counting.
void check_graph_consistency(const graph::Graph& g);

/// Scoped form: the same per-row check over the live rows of `rows`, every
/// entry's mirror found by a binary search in the neighbor's row; the edge
/// count stays global (a sum of row lengths, no row walk).
void check_graph_consistency(const graph::Graph& g, std::span<const graph::NodeId> rows);

/// Every G' edge whose endpoints are both alive in g is present in g
/// (multi-claim design guarantee; DESIGN.md decision 1). Merge-walks each
/// reference row against the same node's row in g.
void check_reference_edges_present(const graph::Graph& g, const graph::Graph& ref);

/// Scoped form: the reference rows of `rows`, each edge from both ends.
void check_reference_edges_present(const graph::Graph& g, const graph::Graph& ref,
                                   std::span<const graph::NodeId> rows);

/// The healed graph is connected.
void check_connected(const graph::Graph& g);

/// Lemma 3 bound: degree_G(v) <= kappa * degree_G'(v) + 2*kappa for every
/// alive node with positive reference degree.
void check_degree_bound(const graph::Graph& g, const graph::Graph& ref, std::size_t kappa);

/// Scoped form: the live nodes of `rows`.
void check_degree_bound(const graph::Graph& g, const graph::Graph& ref, std::size_t kappa,
                        std::span<const graph::NodeId> rows);

/// One oracle failure observed by InvariantSuite: which oracle fired and
/// the contract message it produced.
struct InvariantFinding {
    std::string oracle;
    std::string message;
};

/// The reusable, non-throwing oracle bundle behind trace-driven fuzzing and
/// shrinking (and any other caller that wants "did anything break?" instead
/// of an exception). Each enabled oracle converts a ContractViolation into
/// an InvariantFinding; callers decide what a finding means.
///
/// Oracles are split by cost so callers can run the structural set after
/// every event and the spectral set only at a coarser cadence:
///   structural — graph consistency, reference-edge presence,
///                connectivity, the Lemma 3 degree bound (xheal-family
///                healers; disable for baselines, whose degree is unbounded
///                by design), the healer's own deep self-check (for Xheal:
///                cloud claims == topology projection).
///   spectral   — lambda2 floor through a caller-supplied probe (the PR 3
///                sparse ProbeEngine in trace_tools), enabled by
///                set_lambda2_floor.
class InvariantSuite {
public:
    explicit InvariantSuite(std::size_t kappa = 1) : kappa_(kappa) {}

    std::size_t kappa() const { return kappa_; }

    /// The degree-bound oracle asserts Lemma 3, which only the xheal family
    /// guarantees; leave it off when executing against baseline healers.
    void enable_degree_bound(bool on) { degree_bound_ = on; }

    /// Enable the lambda2-floor oracle: `probe` computes lambda2 of the
    /// healed graph (trace_tools wires in spectral::ProbeEngine); a reading
    /// below `floor` is a finding. NaN floor disables.
    void set_lambda2_floor(double floor, std::function<double(const graph::Graph&)> probe) {
        lambda2_floor_ = floor;
        lambda2_probe_ = std::move(probe);
    }

    /// Run the cheap structural oracles, appending findings to `out`.
    void check_structural(const HealingSession& session,
                          std::vector<InvariantFinding>& out) const;

    /// Scoped form: graph consistency, reference edges, the degree bound
    /// and the healer's self-check cover only `rows` (and, for Xheal, the
    /// clouds those rows reach); connectivity stays global. If every
    /// invariant held at the previous check and `rows` holds every row
    /// touched since (TouchedRows), the findings are the full set's.
    void check_structural(const HealingSession& session,
                          std::span<const graph::NodeId> rows,
                          std::vector<InvariantFinding>& out) const;

    /// Run the lambda2-floor oracle if configured (expensive at scale).
    void check_spectral(const HealingSession& session,
                        std::vector<InvariantFinding>& out) const;

    bool spectral_enabled() const {
        return lambda2_probe_ != nullptr && !std::isnan(lambda2_floor_);
    }

private:
    /// Both forms: no `rows` is the full sweep, one span the scoped check;
    /// each oracle calls the matching overload.
    template <typename... Scope>
    void run_structural(const HealingSession& session, std::vector<InvariantFinding>& out,
                        const Scope&... rows) const;

    std::size_t kappa_;
    bool degree_bound_ = true;
    double lambda2_floor_ = std::nan("");
    std::function<double(const graph::Graph&)> lambda2_probe_;
};

/// The scope of the scoped checks: the rows a session touched since the
/// previous drain, from the structure journals of G and G' plus G's claim
/// journal, merged ascending and deduplicated. It owns those journals for
/// its lifetime, so no other journal consumer (the runner's CSR patch
/// path) may share the session.
class TouchedRows {
public:
    /// Enable the three journals, `limit` ids each.
    TouchedRows(HealingSession& session, std::size_t limit);

    /// Collect the journals into rows() and clear them. False when the
    /// touched set is unknown and a full sweep is due: on the first drain,
    /// and after a journal overflowed (more than `limit` ids, or a
    /// compaction renumbered them).
    bool drain();

    std::span<const graph::NodeId> rows() const { return rows_; }

private:
    const HealingSession& session_;
    std::vector<graph::NodeId> rows_;
    std::vector<std::uint8_t> seen_;  // all zero between drains
    bool drained_ = false;
};

}  // namespace xheal::core
