// Sparse probe layer: the CSR snapshot mirrors the slot graph exactly, and
// the matrix-free Lanczos lambda2 agrees with the dense Jacobi reference to
// 1e-6 across 50 randomized small graphs (Erdos-Renyi, rings, stars,
// disconnected unions) plus post-churn graphs replayed from traces.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "graph/algorithms.hpp"
#include "scenario/runner.hpp"
#include "spectral/csr.hpp"
#include "spectral/laplacian.hpp"
#include "spectral/probes.hpp"
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
    spectral::ProbeEngine engine;
    double dense = engine.lambda2_dense(g);
    double sparse = engine.lambda2_sparse(g, /*seed=*/g.node_count() * 7919 + 13);
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

TEST(SparseLambda2, AutoSelectionIsConsistentAcrossTheThreshold) {
    // A graph just under the dense limit and one just over it: the auto
    // probe must agree with both forced paths.
    util::Rng rng(5);
    spectral::ProbeEngine engine(/*dense_limit=*/32);
    Graph small = workload::make_hgraph_graph(30, 2, rng);
    EXPECT_NEAR(engine.lambda2(small), engine.lambda2_dense(small), 1e-12);
    // The auto path uses the budgeted probe accuracy; compare loosely.
    Graph large = workload::make_hgraph_graph(64, 2, rng);
    EXPECT_NEAR(engine.lambda2(large), engine.lambda2_sparse(large), 1e-3);
}

TEST(SparseLambda2, FreeFunctionIsTheEnginesExhaustiveSolve) {
    // Above the dense limit spectral::lambda2 runs the engine's operator,
    // kernel, seed and budget: the values agree bitwise, not just closely.
    util::Rng rng(41);
    std::vector<Graph> graphs;
    graphs.push_back(workload::make_hgraph_graph(spectral::dense_spectral_limit + 1, 2, rng));
    graphs.push_back(workload::make_random_regular(240, 4, rng));
    graphs.push_back(workload::make_grid(13, 13));
    Graph holey = workload::make_hgraph_graph(400, 3, rng);
    for (NodeId v = 0; v < 400; v += 7) holey.remove_node(v);  // tombstones
    if (graph::is_connected(holey)) graphs.push_back(std::move(holey));
    for (const Graph& g : graphs) {
        ASSERT_GT(g.node_count(), spectral::dense_spectral_limit);
        ASSERT_TRUE(graph::is_connected(g));
        double engine = spectral::ProbeEngine().lambda2_sparse(g);
        EXPECT_GT(engine, 0.0);
        EXPECT_EQ(spectral::lambda2(g), engine) << "n=" << g.node_count();
        EXPECT_EQ(spectral::fiedler(g).lambda2, engine) << "n=" << g.node_count();
    }
    EXPECT_EQ(graphs.size(), 4u);
}

TEST(SparseLambda2, TrivialAndDegenerateGraphs) {
    spectral::ProbeEngine engine;
    Graph empty;
    EXPECT_EQ(engine.lambda2(empty), 0.0);
    Graph single;
    single.add_node();
    EXPECT_EQ(engine.lambda2(single), 0.0);
    Graph isolated;  // two nodes, no edges: disconnected
    isolated.add_node();
    isolated.add_node();
    EXPECT_EQ(engine.lambda2_sparse(isolated), 0.0);
    EXPECT_NEAR(engine.lambda2_dense(isolated), 0.0, 1e-12);
}

TEST(SparseComponentCount, MatchesTheGraphLayer) {
    util::Rng rng(31);
    spectral::ProbeEngine engine;
    Graph g = two_rings(6, 9);
    EXPECT_EQ(engine.component_count(g), 2u);
    g.add_black_edge(0, 6);  // join the rings
    EXPECT_EQ(engine.component_count(g), 1u);
    Graph e;
    EXPECT_EQ(engine.component_count(e), 0u);
    Graph er = raw_erdos_renyi(40, 0.05, rng);
    EXPECT_EQ(engine.component_count(er), graph::connected_components(er).size());
}
