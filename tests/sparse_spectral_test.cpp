// Sparse probe layer: the CSR snapshot mirrors the slot graph exactly, and
// the matrix-free Lanczos lambda2 agrees with the dense Jacobi reference
// spectrum to 1e-6 across 50 randomized small graphs (Erdos-Renyi, rings,
// stars, disconnected unions) plus post-churn graphs replayed from traces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>
#include <vector>

#include "graph/algorithms.hpp"
#include "scenario/runner.hpp"
#include "spectral/csr.hpp"
#include "spectral/lanczos.hpp"
#include "spectral/laplacian.hpp"
#include "spectral/probes.hpp"
#include "support/dense_laplacian.hpp"
#include "support/graph_reference.hpp"
#include "workload/generators.hpp"

using namespace xheal;
using graph::Graph;
using graph::NodeId;

namespace {

/// Erdos-Renyi draw without the library generator's connectivity resampling
/// (the property suite wants disconnected instances too).
Graph raw_erdos_renyi(std::size_t n, double p, util::Rng& rng) {
    Graph g;
    for (std::size_t i = 0; i < n; ++i) g.add_node();
    for (NodeId u = 0; u < n; ++u)
        for (NodeId v = u + 1; v < n; ++v)
            if (rng.chance(p)) g.add_black_edge(u, v);
    return g;
}

/// A fresh snapshot of g, the input of the engine's probes.
spectral::CsrGraph snapshot(const Graph& g) {
    spectral::CsrGraph csr;
    csr.build(g);
    return csr;
}

/// Two disjoint rings: always disconnected, lambda2 exactly 0.
Graph two_rings(std::size_t a, std::size_t b) {
    Graph g;
    for (std::size_t i = 0; i < a + b; ++i) g.add_node();
    for (std::size_t i = 0; i < a; ++i)
        g.add_black_edge(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % a));
    for (std::size_t i = 0; i < b; ++i)
        g.add_black_edge(static_cast<NodeId>(a + i),
                         static_cast<NodeId>(a + (i + 1) % b));
    return g;
}

void expect_sparse_matches_dense(const Graph& g, const char* what) {
    double dense = spectral::laplacian_spectrum(g, spectral::LaplacianKind::normalized)[1];
    double sparse =
        spectral::ProbeEngine().lambda2_sparse(g, /*seed=*/g.node_count() * 7919 + 13);
    EXPECT_NEAR(sparse, dense, 1e-6) << what << " n=" << g.node_count();
}

}  // namespace

TEST(CsrSnapshot, MirrorsTheSlotGraphAfterChurn) {
    util::Rng rng(11);
    Graph g = workload::make_erdos_renyi(40, 0.15, rng);
    // Punch tombstone holes and add late nodes so ids are non-contiguous.
    g.remove_node(3);
    g.remove_node(17);
    NodeId fresh = g.add_node();
    g.add_black_edge(fresh, 5);
    g.add_black_edge(fresh, 9);

    spectral::CsrGraph csr;
    csr.build(g);
    ASSERT_EQ(csr.size(), g.node_count());
    ASSERT_EQ(csr.edge_count(), g.edge_count());
    EXPECT_EQ(csr.index_of(3), spectral::CsrGraph::npos);
    EXPECT_EQ(csr.index_of(17), spectral::CsrGraph::npos);
    for (NodeId v : g.nodes()) {
        std::uint32_t i = csr.index_of(v);
        ASSERT_NE(i, spectral::CsrGraph::npos);
        ASSERT_EQ(csr.nodes()[i], v);
        ASSERT_EQ(csr.degree(i), g.degree(v));
        std::vector<NodeId> row_ids;
        for (std::uint32_t j : csr.row(i)) row_ids.push_back(csr.nodes()[j]);
        std::vector<NodeId> expected(g.neighbors(v).begin(), g.neighbors(v).end());
        EXPECT_EQ(row_ids, expected);
    }

    // Rebuild over a mutated graph reuses the snapshot in place.
    g.remove_node(25);
    csr.build(g);
    EXPECT_EQ(csr.size(), g.node_count());
    EXPECT_EQ(csr.index_of(25), spectral::CsrGraph::npos);
}

TEST(SparseLambda2, AgreesWithDenseOnFiftyRandomizedGraphs) {
    util::Rng rng(2024);
    std::size_t cases = 0;
    // 20 Erdos-Renyi draws across the connectivity threshold (some of these
    // are disconnected, which is the point).
    for (int i = 0; i < 20; ++i) {
        std::size_t n = 8 + rng.index(40);
        double p = 0.05 + 0.25 * rng.uniform01();
        Graph g = raw_erdos_renyi(n, p, rng);
        expect_sparse_matches_dense(g, "erdos-renyi");
        ++cases;
    }
    // 10 rings.
    for (int i = 0; i < 10; ++i) {
        Graph g = workload::make_cycle(3 + rng.index(60));
        expect_sparse_matches_dense(g, "ring");
        ++cases;
    }
    // 10 stars.
    for (int i = 0; i < 10; ++i) {
        Graph g = workload::make_star(2 + rng.index(50));
        expect_sparse_matches_dense(g, "star");
        ++cases;
    }
    // 10 guaranteed-disconnected unions.
    for (int i = 0; i < 10; ++i) {
        Graph g = two_rings(3 + rng.index(20), 3 + rng.index(20));
        expect_sparse_matches_dense(g, "two-rings");
        ++cases;
    }
    EXPECT_EQ(cases, 50u);
}

TEST(SparseLambda2, AgreesWithDenseOnPostChurnGraphsReplayedFromTraces) {
    auto spec = scenario::ScenarioSpec::parse(R"(
name probe-churn
seed 99
topology random-regular n=48 d=4
healer xheal d=2
phase churn steps=60 delete_fraction=0.5 deleter=random inserter=random-attach k=3 min_nodes=12
phase assault steps=10 delete_fraction=1 deleter=max-degree min_nodes=12
)");
    scenario::ScenarioRunner recorder(spec);
    auto recorded = recorder.run();
    expect_sparse_matches_dense(recorder.session().current(), "post-churn");

    // The same graph reproduced through trace replay must agree too.
    scenario::ScenarioRunner replayer(spec);
    replayer.replay(recorded.to_trace(spec));
    expect_sparse_matches_dense(replayer.session().current(), "replayed");
}

TEST(SparseLambda2, AutoProbeIsExactOnSmallGraphsAndBudgetedOnLarge) {
    // Up to exact_lanczos_steps nodes the engine's lambda2_csr probe is the
    // cold exhaustive solve: bitwise the free function and exact against
    // the Jacobi reference. Above it the probe is budgeted, so it sits
    // within probe accuracy of the exhaustive solve.
    util::Rng rng(5);
    spectral::ProbeEngine engine;
    Graph small = workload::make_hgraph_graph(30, 2, rng);
    double auto_small = engine.lambda2_csr(snapshot(small));
    EXPECT_EQ(auto_small, spectral::lambda2(small));
    EXPECT_NEAR(auto_small,
                spectral::laplacian_spectrum(small, spectral::LaplacianKind::normalized)[1],
                1e-9);
    Graph large = workload::make_hgraph_graph(200, 2, rng);
    ASSERT_GT(large.node_count(), spectral::ProbeEngine::exact_lanczos_steps);
    EXPECT_NEAR(engine.lambda2_csr(snapshot(large)), spectral::ProbeEngine().lambda2_sparse(large),
                spectral::ProbeEngine::probe_lambda2_tol);
}

TEST(SparseLambda2, FreeFunctionIsTheEnginesExhaustiveSolve) {
    // spectral::lambda2 runs the engine's operator, kernel, seed and budget
    // at every size: the values agree bitwise, not just closely.
    util::Rng rng(41);
    std::vector<Graph> graphs;
    graphs.push_back(workload::make_hgraph_graph(161, 2, rng));
    graphs.push_back(workload::make_random_regular(240, 4, rng));
    graphs.push_back(workload::make_grid(13, 13));
    Graph holey = workload::make_hgraph_graph(400, 3, rng);
    for (NodeId v = 0; v < 400; v += 7) holey.remove_node(v);  // tombstones
    if (graph::is_connected(holey)) graphs.push_back(std::move(holey));
    graphs.push_back(workload::make_hgraph_graph(48, 2, rng));  // below the step budget
    for (const Graph& g : graphs) {
        ASSERT_TRUE(graph::is_connected(g));
        double engine = spectral::ProbeEngine().lambda2_sparse(g);
        EXPECT_GT(engine, 0.0);
        EXPECT_EQ(spectral::lambda2(g), engine) << "n=" << g.node_count();
        EXPECT_EQ(spectral::fiedler(g).lambda2, engine) << "n=" << g.node_count();
    }
    EXPECT_EQ(graphs.size(), 5u);
}

/// Largest |<b_i, b_j>| (i != j) and |<b_i, kernel>| over the basis rows a
/// Lanczos solve used.
std::pair<double, double> basis_orthogonality_loss(const spectral::LanczosWorkspace& ws,
                                                   std::size_t rows,
                                                   const std::vector<double>& kernel) {
    auto dot = [](const std::vector<double>& a, const std::vector<double>& b) {
        double sum = 0.0;
        for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
        return sum;
    };
    double pairs = 0.0, against_kernel = 0.0;
    for (std::size_t i = 0; i < rows; ++i) {
        against_kernel = std::max(against_kernel, std::abs(dot(ws.basis[i], kernel)));
        for (std::size_t j = 0; j < i; ++j)
            pairs = std::max(pairs, std::abs(dot(ws.basis[i], ws.basis[j])));
    }
    return {pairs, against_kernel};
}

TEST(SparseLambda2, LanczosBasisStaysSemiOrthogonal) {
    // The solve reorthogonalizes only components above sqrt(eps)·‖w‖, so its
    // basis is orthogonal to about 1.5e-8, not to round-off. Check that
    // level (with headroom) over an exhaustive solve, where Ritz vectors
    // converge and orthogonality is lost fastest, and over the probe's
    // 64-step budget at a size where it cannot converge early.
    util::Rng rng(17);
    // Tolerance 0 turns the convergence exits off: each solve runs its
    // whole step budget, or until its Krylov space is spent.
    struct Case {
        Graph g;
        std::size_t steps;
    };
    std::vector<Case> cases;
    cases.push_back(
        {workload::make_random_regular(160, 4, rng), spectral::ProbeEngine::exact_lanczos_steps});
    cases.push_back(
        {workload::make_hgraph_graph(10000, 3, rng), spectral::ProbeEngine::probe_lanczos_steps});
    for (const Case& c : cases) {
        spectral::CsrGraph csr;
        csr.build(c.g);
        std::vector<double> kernel, scaled;
        csr.normalized_kernel(kernel);
        spectral::LinearOperator apply = [&](const std::vector<double>& x,
                                             std::vector<double>& y) {
            csr.apply_normalized_laplacian(x, y, scaled);
        };
        spectral::LanczosWorkspace ws;
        util::Rng solve_rng(99);
        spectral::LanczosResult result = spectral::lanczos_smallest(
            apply, csr.size(), kernel, solve_rng, ws, c.steps, /*tolerance=*/0.0);
        EXPECT_EQ(result.iterations, std::min(c.steps, csr.size() - 1)) << "n=" << csr.size();
        auto [pairs, against_kernel] = basis_orthogonality_loss(ws, result.iterations, kernel);
        EXPECT_LE(pairs, 1e-7) << "n=" << csr.size();
        EXPECT_LE(against_kernel, 1e-7) << "n=" << csr.size();
        for (std::size_t i = 0; i < result.iterations; ++i) {
            double norm = std::sqrt(std::inner_product(ws.basis[i].begin(), ws.basis[i].end(),
                                                       ws.basis[i].begin(), 0.0));
            EXPECT_NEAR(norm, 1.0, 1e-12) << "row " << i << " n=" << csr.size();
        }
    }
}

TEST(SparseLambda2, TrivialAndDegenerateGraphs) {
    spectral::ProbeEngine engine;
    Graph empty;
    EXPECT_EQ(engine.lambda2_csr(snapshot(empty)), 0.0);
    Graph single;
    single.add_node();
    EXPECT_EQ(engine.lambda2_csr(snapshot(single)), 0.0);
    Graph isolated;  // two nodes, no edges: disconnected
    isolated.add_node();
    isolated.add_node();
    EXPECT_EQ(engine.lambda2_sparse(isolated), 0.0);
    EXPECT_NEAR(
        spectral::laplacian_spectrum(isolated, spectral::LaplacianKind::normalized)[1],
        0.0, 1e-12);
}

TEST(SparseComponentCount, MatchesTheGraphLayer) {
    util::Rng rng(31);
    spectral::ProbeEngine engine;
    Graph g = two_rings(6, 9);
    EXPECT_EQ(engine.component_count_csr(snapshot(g)), 2u);
    g.add_black_edge(0, 6);  // join the rings
    EXPECT_EQ(engine.component_count_csr(snapshot(g)), 1u);
    Graph e;
    EXPECT_EQ(engine.component_count_csr(snapshot(e)), 0u);
    Graph er = raw_erdos_renyi(40, 0.05, rng);
    EXPECT_EQ(engine.component_count_csr(snapshot(er)), graph::connected_components(er).size());
}
