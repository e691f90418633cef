// Sampled-stretch probe properties: the budgeted probe is a lower bound on
// the exact stretch (a max over a subset of sources can only miss pairs),
// it reaches the exact value once the budget covers every live node, and
// the probe RNG stream never perturbs run determinism (trace hash and
// final-graph fingerprint are budget-independent).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "graph/algorithms.hpp"
#include "scenario/runner.hpp"
#include "spectral/probes.hpp"

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

/// Exact stretch of the paper's metric, clamped to the probe's >= 1 floor.
double exact_stretch(const graph::Graph& g, const graph::Graph& ref) {
    return std::max(1.0, graph::stretch_vs(g, ref));
}

}  // namespace

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
        double sampled = engine.sampled_stretch(g, ref, budget, rng);
        EXPECT_LE(sampled, exact) << "budget " << budget;
        EXPECT_GE(sampled, 1.0);
        previous_best = std::max(previous_best, sampled);
    }
    // A budget covering every live node degenerates to the exact sweep.
    util::Rng rng(1);
    double full = engine.sampled_stretch(g, ref, g.node_count(), rng);
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
    double sparse = engine.sampled_stretch(g, ref, g.node_count() + 5, probe_rng);
    double legacy = std::max(1.0, graph::stretch_vs(g, ref));
    EXPECT_DOUBLE_EQ(sparse, legacy);
}

TEST(StretchProbe, TrivialGraphsReportUnitStretch) {
    spectral::ProbeEngine engine;
    util::Rng rng(3);
    graph::Graph tiny;
    tiny.add_node();
    EXPECT_DOUBLE_EQ(engine.sampled_stretch(tiny, tiny, 8, rng), 1.0);
    // Budget 0 samples nothing: the probe reports the trivial floor.
    graph::Graph pair;
    pair.add_node();
    pair.add_node();
    pair.add_black_edge(0, 1);
    EXPECT_DOUBLE_EQ(engine.sampled_stretch(pair, pair, 0, rng), 1.0);
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
    EXPECT_TRUE(std::isinf(engine.sampled_stretch(g, ref, 8, rng)));
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
