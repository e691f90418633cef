// Sampled-stretch probe properties: the budgeted probe is a lower bound on
// the exact stretch (a max over a subset of sources can only miss pairs),
// it reaches the exact value once the budget covers every live node, and
// the probe RNG stream never perturbs run determinism (trace hash and
// final-graph fingerprint are budget-independent). The direction-optimizing
// CSR BFS under the probe matches the textbook BFS of the graph layer on
// every node, every component count and every stretch sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "graph/algorithms.hpp"
#include "scenario/runner.hpp"
#include "spectral/csr.hpp"
#include "spectral/probes.hpp"
#include "support/graph_reference.hpp"
#include "workload/generators.hpp"

using namespace xheal;

namespace {

scenario::ScenarioSpec churn_spec() {
    return scenario::ScenarioSpec::parse(R"(
name stretch-churn
seed 23
topology random-regular n=48 d=4
healer xheal d=2
phase churn steps=50 delete_fraction=0.6 deleter=random inserter=random-attach k=3 min_nodes=16
)");
}

/// The runner's stretch probe on fresh snapshots of g and ref: `budget`
/// sources drawn from rng, then the BFS sweep.
double sampled_stretch(spectral::ProbeEngine& engine, const graph::Graph& g,
                       const graph::Graph& ref, std::size_t budget, util::Rng& rng) {
    spectral::CsrGraph csr, ref_csr;
    csr.build(g);
    ref_csr.build(ref);
    std::vector<graph::NodeId> sources;
    spectral::ProbeEngine::sample_stretch_sources(csr, budget, rng, sources);
    return engine.stretch_over_sources(csr, ref_csr, sources);
}

/// Exact stretch of the paper's metric, clamped to the probe's >= 1 floor.
double exact_stretch(const graph::Graph& g, const graph::Graph& ref) {
    return std::max(1.0, graph::stretch_vs(g, ref));
}

/// A 3,000-node H-graph with gaps punched in its ids, plus a ring, a path
/// and a dozen isolated nodes: several components, some of them single
/// nodes, under ids that are not the dense indices.
graph::Graph fragments(util::Rng& rng) {
    graph::Graph g = workload::make_hgraph_graph(3000, 3, rng);
    for (graph::NodeId v = 5; v < 3000; v += 97) g.remove_node(v);
    auto chain = [&g](std::size_t len, bool close) {
        graph::NodeId first = g.add_node();
        graph::NodeId prev = first;
        for (std::size_t i = 1; i < len; ++i) {
            graph::NodeId v = g.add_node();
            g.add_black_edge(prev, v);
            prev = v;
        }
        if (close) g.add_black_edge(prev, first);
    };
    chain(40, /*close=*/true);
    chain(25, /*close=*/false);
    for (int i = 0; i < 12; ++i) g.add_node();
    return g;
}

/// The graphs the BFS is checked on: H-graphs large enough for the flood's
/// bottom-up levels to run, a random-regular expander, a path and a star
/// (whose frontiers never qualify for bottom-up), and the fragments above.
std::vector<std::pair<std::string, graph::Graph>> bfs_graphs() {
    util::Rng rng(77);
    std::vector<std::pair<std::string, graph::Graph>> out;
    out.emplace_back("hgraph-4096", workload::make_hgraph_graph(4096, 3, rng));
    out.emplace_back("hgraph-16384", workload::make_hgraph_graph(16384, 3, rng));
    out.emplace_back("random-regular-3000", workload::make_random_regular(3000, 4, rng));
    out.emplace_back("path-400", workload::make_path(400));
    out.emplace_back("star-600", workload::make_star(600));
    out.emplace_back("fragments", fragments(rng));
    return out;
}

/// The stretch sweep over `sources`, built on the graph layer's textbook
/// BFS: max over pairs alive in both graphs and connected in ref of
/// dist_g / dist_ref, +infinity when such a pair is disconnected in g,
/// never below 1.
double reference_stretch(const graph::Graph& g, const graph::Graph& ref,
                         const std::vector<graph::NodeId>& sources) {
    double worst = 1.0;
    for (graph::NodeId s : sources) {
        if (!ref.has_node(s)) continue;
        std::vector<std::size_t> dg = graph::bfs_distances(g, s);
        std::vector<std::size_t> dr = graph::bfs_distances(ref, s);
        for (graph::NodeId t = 0; t < dr.size(); ++t) {
            if (dr[t] == graph::unreached || dr[t] == 0 || !g.has_node(t)) continue;
            if (dg[t] == graph::unreached) return std::numeric_limits<double>::infinity();
            worst = std::max(worst, static_cast<double>(dg[t]) / static_cast<double>(dr[t]));
        }
    }
    return worst;
}

}  // namespace

TEST(CsrBfs, DistancesAndComponentsMatchTheGraphLayer) {
    spectral::ProbeEngine engine;
    spectral::BfsScratch scratch;
    std::vector<std::uint32_t> dist;
    for (const auto& [name, g] : bfs_graphs()) {
        spectral::CsrGraph csr;
        csr.build(g);
        std::size_t components = graph::connected_components(g).size();
        EXPECT_EQ(engine.component_count_csr(csr), components) << name;
        if (name == "fragments") {
            EXPECT_GE(components, 3u + 12u);
        }
        const std::vector<graph::NodeId>& ids = csr.nodes();
        // The first and last live nodes, the node of highest degree (a
        // star's hub), the last id added (an isolated node in `fragments`)
        // and four drawn at random.
        std::vector<graph::NodeId> sources = {ids.front(), ids.back()};
        std::uint32_t hub = 0;
        for (std::uint32_t i = 0; i < csr.size(); ++i)
            if (csr.degree(i) > csr.degree(hub)) hub = i;
        sources.push_back(ids[hub]);
        util::Rng rng(5);
        for (int k = 0; k < 4; ++k) sources.push_back(ids[rng.index(ids.size())]);
        for (graph::NodeId s : sources) {
            spectral::bfs_distances(csr, csr.index_of(s), scratch, dist);
            std::vector<std::size_t> expected = graph::bfs_distances(g, s);
            ASSERT_EQ(dist.size(), ids.size());
            std::size_t mismatches = 0, reached = 0;
            for (std::size_t i = 0; i < ids.size(); ++i) {
                std::size_t want = expected[ids[i]];
                bool same = want == graph::unreached ? dist[i] == spectral::CsrGraph::npos
                                                     : dist[i] == want;
                if (!same) ++mismatches;
                if (want != graph::unreached) ++reached;
            }
            EXPECT_EQ(mismatches, 0u) << name << " source " << s;
            EXPECT_GE(reached, 1u) << name << " source " << s;
        }
    }
}

TEST(CsrBfs, StretchSweepMatchesAReferenceOnTheTextbookBfs) {
    // Healed graphs against their insert-only references: an H-graph and a
    // random-regular expander churned under xheal, and the fragments graph
    // against itself with every edge (v, w) with 11 | v + w cut.
    const char* shapes[] = {"topology hgraph n=6000 d=3", "topology random-regular n=3000 d=4"};
    spectral::ProbeEngine engine;
    for (const char* topology : shapes) {
        scenario::ScenarioRunner runner(scenario::ScenarioSpec::parse(
            std::string("name bfs-stretch\nseed 9\n") + topology +
            "\nhealer xheal d=2\nsample_every 0\n"
            "phase churn steps=300 delete_fraction=0.6 deleter=random "
            "inserter=random-attach k=3 min_nodes=1000\n"));
        runner.run();
        const graph::Graph& g = runner.session().current();
        const graph::Graph& ref = runner.session().reference();
        spectral::CsrGraph csr, ref_csr;
        csr.build(g);
        ref_csr.build(ref);
        util::Rng rng(3);
        std::vector<graph::NodeId> sources;
        for (std::size_t budget : {1u, 4u, 8u}) {
            spectral::ProbeEngine::sample_stretch_sources(csr, budget, rng, sources);
            double probe = engine.stretch_over_sources(csr, ref_csr, sources);
            EXPECT_EQ(probe, reference_stretch(g, ref, sources)) << topology;
        }
    }

    util::Rng rng(4);
    graph::Graph ref = fragments(rng);
    graph::Graph g = ref;
    std::vector<std::pair<graph::NodeId, graph::NodeId>> cut;
    for (graph::NodeId v : g.nodes())
        for (graph::NodeId w : g.neighbors(v))
            if (v < w && (v + w) % 11 == 0) cut.emplace_back(v, w);
    for (auto [v, w] : cut) g.remove_black_claim(v, w);
    spectral::CsrGraph csr, ref_csr;
    csr.build(g);
    ref_csr.build(ref);
    std::vector<graph::NodeId> sources;
    spectral::ProbeEngine::sample_stretch_sources(csr, 12, rng, sources);
    EXPECT_EQ(engine.stretch_over_sources(csr, ref_csr, sources),
              reference_stretch(g, ref, sources));
}

TEST(StretchProbe, SampledValueNeverExceedsExactAndConvergesWithBudget) {
    scenario::ScenarioRunner runner(churn_spec());
    runner.run();
    const graph::Graph& g = runner.session().current();
    const graph::Graph& ref = runner.session().reference();

    double exact = exact_stretch(g, ref);
    ASSERT_TRUE(std::isfinite(exact));

    spectral::ProbeEngine engine;
    double previous_best = 0.0;
    for (std::size_t budget : {1u, 2u, 4u, 8u, 16u, 32u}) {
        // Average-free determinism: a fresh rng per budget level keeps each
        // draw independent of the others.
        util::Rng rng(7000 + budget);
        double sampled = sampled_stretch(engine, g, ref, budget, rng);
        EXPECT_LE(sampled, exact) << "budget " << budget;
        EXPECT_GE(sampled, 1.0);
        previous_best = std::max(previous_best, sampled);
    }
    // A budget covering every live node degenerates to the exact sweep.
    util::Rng rng(1);
    double full = sampled_stretch(engine, g, ref, g.node_count(), rng);
    EXPECT_DOUBLE_EQ(full, exact);
    EXPECT_LE(previous_best, full);
}

TEST(StretchProbe, FullBudgetMatchesTheLegacyMetric) {
    scenario::ScenarioRunner runner(churn_spec());
    runner.run();
    const graph::Graph& g = runner.session().current();
    const graph::Graph& ref = runner.session().reference();

    spectral::ProbeEngine engine;
    util::Rng probe_rng(42);
    double sparse = sampled_stretch(engine, g, ref, g.node_count() + 5, probe_rng);
    double legacy = std::max(1.0, graph::stretch_vs(g, ref));
    EXPECT_DOUBLE_EQ(sparse, legacy);
}

TEST(StretchProbe, TrivialGraphsReportUnitStretch) {
    spectral::ProbeEngine engine;
    util::Rng rng(3);
    graph::Graph tiny;
    tiny.add_node();
    EXPECT_DOUBLE_EQ(sampled_stretch(engine, tiny, tiny, 8, rng), 1.0);
    // Budget 0 samples nothing: the probe reports the trivial floor.
    graph::Graph pair;
    pair.add_node();
    pair.add_node();
    pair.add_black_edge(0, 1);
    EXPECT_DOUBLE_EQ(sampled_stretch(engine, pair, pair, 0, rng), 1.0);
}

TEST(StretchProbe, DisconnectionInTheHealedGraphIsInfinite) {
    // ref: a path 0-1-2; g: node 1 deleted and no healing (no-heal would
    // leave 0 and 2 disconnected while ref connects them through 1).
    graph::Graph ref;
    for (int i = 0; i < 3; ++i) ref.add_node();
    ref.add_black_edge(0, 1);
    ref.add_black_edge(1, 2);
    graph::Graph g;
    for (int i = 0; i < 3; ++i) g.add_node();
    g.add_black_edge(0, 1);
    g.add_black_edge(1, 2);
    g.remove_node(1);

    spectral::ProbeEngine engine;
    util::Rng rng(9);
    EXPECT_TRUE(std::isinf(sampled_stretch(engine, g, ref, 8, rng)));
}

TEST(StretchProbe, ProbeBudgetLeavesRunDeterminismUnchanged) {
    auto base_spec = churn_spec();
    auto probed_spec = churn_spec();
    probed_spec.probes = {"stretch", "lambda2", "connected"};
    probed_spec.sample_every = 7;
    probed_spec.stretch_samples = 3;
    auto heavy_spec = churn_spec();
    heavy_spec.probes = {"stretch"};
    heavy_spec.sample_every = 2;
    heavy_spec.stretch_samples = 31;

    auto base = scenario::ScenarioRunner(base_spec).run();
    auto probed = scenario::ScenarioRunner(probed_spec).run();
    auto heavy = scenario::ScenarioRunner(heavy_spec).run();
    EXPECT_EQ(base.trace_hash, probed.trace_hash);
    EXPECT_EQ(base.trace_hash, heavy.trace_hash);
    EXPECT_EQ(base.fingerprint, probed.fingerprint);
    EXPECT_EQ(base.fingerprint, heavy.fingerprint);
}
