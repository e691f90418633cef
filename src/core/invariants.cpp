#include "core/invariants.hpp"

#include <algorithm>
#include <cstdint>
#include <span>

#include "graph/algorithms.hpp"
#include "util/expects.hpp"
#include "util/table.hpp"

namespace xheal::core {

using graph::Graph;
using graph::NeighborEntry;
using graph::NodeId;

namespace {

/// Live row u of g: strictly ascending, every entry claimed, no self-loop.
/// Each entry (u, v) above u (every entry unless `upper_only`) has a live
/// neighbor whose row holds the mirror entry, `mirror(v)`, naming u with
/// the same black flag and colors. Returns the number of entries above u.
template <typename Mirror>
std::size_t check_row(const Graph& g, NodeId u, bool upper_only, Mirror&& mirror) {
    std::span<const NeighborEntry> row = g.row(u);
    std::size_t upper = 0;
    for (std::size_t i = 0; i < row.size(); ++i) {
        const auto& [v, claims] = row[i];
        XHEAL_ASSERT(i == 0 || row[i - 1].first < v);
        XHEAL_ASSERT(!claims.empty());
        XHEAL_ASSERT(v != u);
        upper += v > u;
        if (upper_only && v < u) continue;
        XHEAL_ASSERT(g.has_node(v));
        const NeighborEntry* entry = mirror(v);
        XHEAL_ASSERT(entry != nullptr && entry->first == u);
        XHEAL_ASSERT(entry->second.black == claims.black);
        XHEAL_ASSERT(entry->second.colors == claims.colors);
    }
    return upper;
}

/// The edge count agrees with the rows: a sum of row lengths, no row walk.
std::size_t check_edge_count(const Graph& g) {
    std::size_t directed_edges = 0;
    for (NodeId u : g.nodes()) directed_edges += g.row(u).size();
    XHEAL_ASSERT(directed_edges == 2 * g.edge_count());
    return directed_edges;
}

}  // namespace

void check_graph_consistency(const Graph& g) {
    // Mirrors of the upper entries only, found without lookups: nodes are
    // walked ascending and rows ascend, so the mirror of (u, v) with v > u
    // is the first entry of row(v) not yet matched, at cursor[v]. Distinct
    // upper entries have distinct mirrors, all lower entries; if the upper
    // entries are half of all entries, every lower entry is such a mirror.
    std::vector<std::uint32_t> cursor(g.next_id(), 0);
    std::size_t upper = 0;
    for (NodeId u : g.nodes())
        upper += check_row(g, u, /*upper_only=*/true, [&](NodeId v) -> const NeighborEntry* {
            std::span<const NeighborEntry> row = g.row(v);
            return cursor[v] < row.size() ? &row[cursor[v]++] : nullptr;
        });
    XHEAL_ASSERT(2 * upper == check_edge_count(g));
}

void check_graph_consistency(const Graph& g, std::span<const NodeId> rows) {
    // A lower neighbor's row need not be in scope: every entry's mirror is
    // found by a binary search.
    for (NodeId u : rows) {
        if (!g.has_node(u)) continue;
        check_row(g, u, /*upper_only=*/false, [&](NodeId v) -> const NeighborEntry* {
            std::span<const NeighborEntry> row = g.row(v);
            auto at = std::lower_bound(
                row.begin(), row.end(), u,
                [](const NeighborEntry& e, NodeId id) { return e.first < id; });
            return at == row.end() ? nullptr : &*at;
        });
    }
    check_edge_count(g);
}

namespace {

/// Merge-walk u's reference row against its row in g (both ascending, so
/// one forward cursor finds every edge): each edge to a survivor is present
/// and black. `upper_only` checks each edge once, from its lower end.
void check_reference_row(const Graph& g, const Graph& ref, NodeId u, bool upper_only) {
    std::span<const NeighborEntry> row = g.row(u);
    std::size_t at = 0;
    for (NodeId v : ref.neighbors(u)) {
        if ((upper_only && v < u) || !g.has_node(v)) continue;
        while (at < row.size() && row[at].first < v) ++at;
        XHEAL_ASSERT(at < row.size() && row[at].first == v);
        XHEAL_ASSERT(row[at].second.black);
    }
}

void check_degree_of(const Graph& g, const Graph& ref, std::size_t kappa, NodeId v) {
    XHEAL_ASSERT(ref.has_node(v));
    std::size_t ref_degree = ref.degree(v);
    std::size_t bound = kappa * ref_degree + 2 * kappa;
    XHEAL_ASSERT(g.degree(v) <= bound);
}

}  // namespace

void check_reference_edges_present(const Graph& g, const Graph& ref) {
    for (NodeId u : ref.nodes())
        if (g.has_node(u)) check_reference_row(g, ref, u, /*upper_only=*/true);
}

void check_reference_edges_present(const Graph& g, const Graph& ref,
                                   std::span<const NodeId> rows) {
    for (NodeId u : rows)
        if (g.has_node(u) && ref.has_node(u))
            check_reference_row(g, ref, u, /*upper_only=*/false);
}

void check_connected(const Graph& g) { XHEAL_ASSERT(graph::is_connected(g)); }

void check_degree_bound(const Graph& g, const Graph& ref, std::size_t kappa) {
    for (NodeId v : g.nodes()) check_degree_of(g, ref, kappa, v);
}

void check_degree_bound(const Graph& g, const Graph& ref, std::size_t kappa,
                        std::span<const NodeId> rows) {
    for (NodeId v : rows)
        if (g.has_node(v)) check_degree_of(g, ref, kappa, v);
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
    run_structural(session, out);
}

void InvariantSuite::check_structural(const HealingSession& session,
                                      std::span<const NodeId> rows,
                                      std::vector<InvariantFinding>& out) const {
    run_structural(session, out, rows);
}

template <typename... Scope>
void InvariantSuite::run_structural(const HealingSession& session,
                                    std::vector<InvariantFinding>& out,
                                    const Scope&... rows) const {
    const graph::Graph& g = session.current();
    const graph::Graph& ref = session.reference();
    run_oracle("graph-consistency", out, [&] { check_graph_consistency(g, rows...); });
    run_oracle("reference-edges", out, [&] { check_reference_edges_present(g, ref, rows...); });
    run_oracle("connectivity", out, [&] { check_connected(g); });
    if (degree_bound_)
        run_oracle("degree-bound", out, [&] { check_degree_bound(g, ref, kappa_, rows...); });
    run_oracle("healer-consistency", out,
               [&] { session.healer().check_consistency(g, rows...); });
}

void InvariantSuite::check_spectral(const HealingSession& session,
                                    std::vector<InvariantFinding>& out) const {
    if (!spectral_enabled()) return;
    run_oracle("lambda2-floor", out, [&] {
        double lambda2 = lambda2_probe_(session.current());
        if (!(lambda2 >= lambda2_floor_))
            throw util::ContractViolation("lambda2 " + util::format_shortest(lambda2) +
                                          " below floor " +
                                          util::format_shortest(lambda2_floor_));
    });
}

TouchedRows::TouchedRows(HealingSession& session, std::size_t limit) : session_(session) {
    session.enable_graph_journals(limit);
    session.enable_claim_journal(limit);
}

bool TouchedRows::drain() {
    const graph::Graph& g = session_.current();
    const graph::Graph& ref = session_.reference();
    const bool known = drained_ && !g.journal_overflowed() &&
                       !g.claim_journal_overflowed() && !ref.journal_overflowed();
    drained_ = true;
    rows_.clear();
    if (known) {
        // Dedupe through a flat mark per id (a journal repeats ids many
        // times), then sort the few distinct rows.
        auto take = [&](const std::vector<NodeId>& journal) {
            for (NodeId v : journal) {
                if (v >= seen_.size()) seen_.resize(static_cast<std::size_t>(v) + 1, 0);
                if (seen_[v] != 0) continue;
                seen_[v] = 1;
                rows_.push_back(v);
            }
        };
        take(g.journal());
        take(g.claim_journal());
        take(ref.journal());
        for (NodeId v : rows_) seen_[v] = 0;
        std::sort(rows_.begin(), rows_.end());
    }
    g.clear_journal();
    g.clear_claim_journal();
    ref.clear_journal();
    return known;
}

}  // namespace xheal::core
