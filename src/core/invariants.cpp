#include "core/invariants.hpp"

#include <cstdint>
#include <span>

#include "graph/algorithms.hpp"
#include "util/expects.hpp"

namespace xheal::core {

using graph::Graph;
using graph::NeighborEntry;
using graph::NodeId;

void check_graph_consistency(const Graph& g) {
    // One ascending pass. cursor[v] counts the entries of row(v) already
    // matched as mirrors of lower nodes' entries: nodes are walked in
    // ascending order and rows are strictly ascending, so the mirror of
    // (u, v) with v > u must be exactly row(v)[cursor[v]]. On reaching u,
    // its first cursor[u] entries are the matched lower neighbors and every
    // entry after them must lie above u — an unmatched lower entry (no
    // mirror, or a dead neighbor) or a self-loop fails that test.
    std::vector<std::uint32_t> cursor(g.next_id(), 0);
    std::size_t directed_edges = 0;
    for (NodeId u : g.nodes()) {
        std::span<const NeighborEntry> row = g.row(u);
        for (std::size_t i = 0; i < row.size(); ++i) {
            const auto& [v, claims] = row[i];
            XHEAL_ASSERT(i == 0 || row[i - 1].first < v);
            XHEAL_ASSERT(!claims.empty());
            if (i < cursor[u]) continue;  // already matched from row(v)
            XHEAL_ASSERT(v > u);
            XHEAL_ASSERT(g.has_node(v));
            std::span<const NeighborEntry> mirror_row = g.row(v);
            XHEAL_ASSERT(cursor[v] < mirror_row.size());
            const auto& [w, mirror] = mirror_row[cursor[v]++];
            XHEAL_ASSERT(w == u);
            XHEAL_ASSERT(mirror.black == claims.black);
            XHEAL_ASSERT(mirror.colors == claims.colors);
        }
        directed_edges += row.size();
    }
    XHEAL_ASSERT(directed_edges == 2 * g.edge_count());
}

void check_reference_edges_present(const Graph& g, const Graph& ref) {
    // Merge-walk each surviving reference row against the same node's row
    // in g: both are ascending, so one forward cursor finds every edge.
    for (NodeId u : ref.nodes()) {
        if (!g.has_node(u)) continue;
        std::span<const NeighborEntry> row = g.row(u);
        std::size_t at = 0;
        for (NodeId v : ref.neighbors(u)) {
            if (v < u || !g.has_node(v)) continue;  // each edge once, survivors only
            while (at < row.size() && row[at].first < v) ++at;
            XHEAL_ASSERT(at < row.size() && row[at].first == v);
            XHEAL_ASSERT(row[at].second.black);
        }
    }
}

void check_connected(const Graph& g) { XHEAL_ASSERT(graph::is_connected(g)); }

void check_degree_bound(const Graph& g, const Graph& ref, std::size_t kappa) {
    for (NodeId v : g.nodes()) {
        XHEAL_ASSERT(ref.has_node(v));
        std::size_t ref_degree = ref.degree(v);
        std::size_t bound = kappa * ref_degree + 2 * kappa;
        XHEAL_ASSERT(g.degree(v) <= bound);
    }
}

void check_session(const HealingSession& session, std::size_t kappa) {
    std::vector<InvariantFinding> findings;
    InvariantSuite(kappa).check_structural(session, findings);
    if (!findings.empty())
        throw util::ContractViolation(findings.front().oracle + ": " +
                                      findings.front().message);
}

namespace {

/// Run one throwing check, converting a contract violation (or any other
/// exception the check surfaces) into a finding under `oracle`.
template <typename F>
void run_oracle(const char* oracle, std::vector<InvariantFinding>& out, F&& check) {
    try {
        check();
    } catch (const std::exception& e) {
        out.push_back({oracle, e.what()});
    }
}

}  // namespace

void InvariantSuite::check_structural(const HealingSession& session,
                                      std::vector<InvariantFinding>& out) const {
    const graph::Graph& g = session.current();
    run_oracle("graph-consistency", out, [&] { check_graph_consistency(g); });
    run_oracle("reference-edges", out,
               [&] { check_reference_edges_present(g, session.reference()); });
    run_oracle("connectivity", out, [&] { check_connected(g); });
    if (degree_bound_)
        run_oracle("degree-bound", out,
                   [&] { check_degree_bound(g, session.reference(), kappa_); });
    run_oracle("healer-consistency", out,
               [&] { session.healer().check_consistency(g); });
}

void InvariantSuite::check_spectral(const HealingSession& session,
                                    std::vector<InvariantFinding>& out) const {
    if (!spectral_enabled()) return;
    run_oracle("lambda2-floor", out, [&] {
        double lambda2 = lambda2_probe_(session.current());
        if (!(lambda2 >= lambda2_floor_))
            throw util::ContractViolation("lambda2 " + std::to_string(lambda2) +
                                          " below floor " +
                                          std::to_string(lambda2_floor_));
    });
}

}  // namespace xheal::core
