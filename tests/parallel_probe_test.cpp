// Fork-join sampling must be invisible in every value. A sample that probes
// stretch runs three tasks: the stepping thread solves lambda2 with no
// connectivity gate, one helper syncs the reference snapshot and sweeps the
// first half of the stretch sources, another counts components, runs the
// cheap probes and sweeps the second half; the gate is applied after the
// join, committing the warm-start vector only for a connected sample. Each
// MetricSample field must therefore equal, bitwise, a serial reference that
// probes the same snapshots one after another through the public CSR entry
// points (the order benchmark/src/traced.cpp uses), with lambda2_csr's
// gate-first solve.
//
// These tests are also the TSan workload for the fork-join: the CI tsan job
// runs them under -fsanitize=thread.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "spectral/probes.hpp"
#include "util/rng.hpp"

namespace xheal {
namespace {

using scenario::Expectation;
using scenario::MetricSample;
using scenario::ScenarioSpec;
using scenario::TraceEvent;

/// Must equal `probe_salt` in scenario/runner.cpp: the probe stream's seed
/// is spec.seed ^ salt.
constexpr std::uint64_t kProbeSalt = 0x70726f6265735full;

/// A churn above ProbeEngine::exact_lanczos_steps nodes (so lambda2 runs
/// the warm-started budgeted Lanczos path) that closes id-compaction epochs.
const char* kCompactingSpec = R"(name parallel-compact
seed 23
topology random-regular n=400 d=4
healer xheal d=2
probes connected degree lambda2 stretch
sample_every 40
stretch_samples 8
phase churn steps=900 delete_fraction=0.6 deleter=random inserter=random-attach k=3 min_nodes=200 compact=2
expect connected
expect lambda2 >= 0.01
)";

/// Every shape of the sample above exact_lanczos_steps nodes: a dumbbell of
/// two 100-cliques that no-heal lets fall apart. Min-degree deletions keep
/// it connected, a cut-point deletion splits it, and inserts that attach to
/// both halves join it again, so disconnected samples (lambda2 solved, then
/// discarded) sit between connected ones that warm-start from the chain.
const char* kForkShapesSpec = R"(name fork-shapes
seed 7
topology dumbbell clique=100
healer no-heal
probes connected lambda2 stretch
sample_every 5
stretch_samples 5
phase trim steps=10 delete_fraction=1 deleter=min-degree
phase cut steps=10 delete_fraction=1 deleter=cut-point
phase mend steps=30 delete_fraction=0 inserter=random-attach k=3
)";

std::string spec_path(const std::string& file) {
    return std::string(XHEAL_REPO_DIR) + "/scenarios/" + file;
}

// Bitwise double equality that treats NaN ("not sampled") as equal to NaN.
::testing::AssertionResult bit_equal(const char* a_expr, const char* b_expr,
                                     double a, double b) {
    std::uint64_t ab, bb;
    static_assert(sizeof(double) == sizeof(std::uint64_t));
    std::memcpy(&ab, &a, sizeof a);
    std::memcpy(&bb, &b, sizeof b);
    if (ab == bb || (std::isnan(a) && std::isnan(b)))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << a_expr << " = " << a << " vs " << b_expr << " = " << b
           << " (bit patterns differ)";
}

struct HeavyProbes {
    bool connected = false;
    bool lambda2 = false;
    bool stretch = false;
};

HeavyProbes cadence_probes(const ScenarioSpec& spec) {
    HeavyProbes p;
    for (const std::string& name : spec.probes) {
        if (name == "connected") p.connected = true;
        if (name == "lambda2") p.lambda2 = true;
        if (name == "stretch") p.stretch = true;
    }
    return p;
}

HeavyProbes final_probes(const ScenarioSpec& spec) {
    HeavyProbes p = cadence_probes(spec);
    for (const Expectation& e : spec.expectations) {
        if (e.kind == Expectation::Kind::connected) p.connected = true;
        if (e.kind == Expectation::Kind::lambda2_ge) p.lambda2 = true;
        if (e.kind == Expectation::Kind::stretch_le) p.stretch = true;
    }
    return p;
}

/// Re-apply run()'s recorded events to a fresh session and probe every
/// sample point on one thread with one engine: components, lambda2_csr
/// (with its own connectivity gate), then the stretch sources and sweeps.
/// Only the heavy-probe fields and the counters are filled.
std::vector<MetricSample> serial_reference(const ScenarioSpec& spec,
                                           const std::vector<TraceEvent>& events) {
    util::Rng rng(spec.seed);
    util::Rng probe_rng(spec.seed ^ kProbeSalt);
    std::size_t kappa = 1;
    const core::CloudRegistry* registry = nullptr;
    core::HealingSession session =
        scenario::build_session(spec, rng, kappa, registry);
    session.enable_graph_journals(1u << 20);
    spectral::ProbeEngine engine;
    spectral::IncrementalSnapshot snap, ref_snap;
    std::vector<graph::NodeId> sources;
    std::vector<MetricSample> out;

    auto sample = [&](std::size_t step, const HeavyProbes& probes) {
        const graph::Graph& g = session.current();
        const graph::Graph& ref = session.reference();
        snap.note(g, g.journal(), g.journal_overflowed());
        ref_snap.note(ref, ref.journal(), ref.journal_overflowed());
        g.clear_journal();
        ref.clear_journal();
        snap.sync(g);
        ref_snap.sync(ref);
        MetricSample s;
        s.step = step;
        s.nodes = g.node_count();
        s.edges = g.edge_count();
        if (probes.connected) s.components = engine.component_count_csr(snap.csr());
        if (probes.lambda2) s.lambda2 = engine.lambda2_csr(snap.csr());
        if (probes.stretch) {
            spectral::ProbeEngine::sample_stretch_sources(snap.csr(), spec.stretch_samples,
                                                          probe_rng, sources);
            s.stretch = engine.stretch_over_sources(snap.csr(), ref_snap.csr(), sources);
        }
        out.push_back(s);
    };

    const HeavyProbes cadence = cadence_probes(spec);
    std::size_t next = 0;
    for (std::size_t step = 0; step < spec.total_steps(); ++step) {
        for (; next < events.size() && events[next].step == step; ++next) {
            const TraceEvent& event = events[next];
            if (event.kind == TraceEvent::Kind::remove) {
                session.delete_node(event.node);
            } else if (event.kind == TraceEvent::Kind::insert) {
                session.insert_node(event.neighbors);
            } else {
                engine.on_compact(session.compact());
                snap.invalidate();
                ref_snap.invalidate();
            }
        }
        std::size_t done = step + 1;
        if (spec.sample_every != 0 && done % spec.sample_every == 0 &&
            done != spec.total_steps())
            sample(done, cadence);
    }
    EXPECT_EQ(next, events.size()) << "events past the schedule";
    sample(spec.total_steps(), final_probes(spec));
    return out;
}

void expect_matches_serial(const ScenarioSpec& spec) {
    scenario::RunResult run = scenario::ScenarioRunner(spec).run();
    std::vector<MetricSample> serial = serial_reference(spec, run.events);
    ASSERT_EQ(run.samples.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        const MetricSample& a = run.samples[i];
        const MetricSample& b = serial[i];
        SCOPED_TRACE("sample " + std::to_string(i) + " @step " + std::to_string(b.step));
        EXPECT_EQ(a.step, b.step);
        EXPECT_EQ(a.nodes, b.nodes);
        EXPECT_EQ(a.edges, b.edges);
        EXPECT_EQ(a.components, b.components);
        EXPECT_PRED_FORMAT2(bit_equal, a.lambda2, b.lambda2);
        EXPECT_PRED_FORMAT2(bit_equal, a.stretch, b.stretch);
    }
    EXPECT_PRED_FORMAT2(bit_equal, run.final_sample.lambda2, serial.back().lambda2);
    EXPECT_EQ(std::isnan(run.final_sample.stretch), !final_probes(spec).stretch);
    EXPECT_EQ(run.probe_stall_seconds, 0.0);
}

// The full heavy probe set (connected + lambda2 + stretch at a 30-step
// cadence) on the bundled p2p overlay: small enough for the cold exhaustive
// lambda2 solve.
TEST(ParallelProbe, P2pChurnMatchesSerialReference) {
    auto spec = ScenarioSpec::parse_file(spec_path("p2p_churn.scn"));
    expect_matches_serial(spec);
}

// Budgeted Lanczos with its warm-start chain, the reused component count, and
// compaction epochs that renumber the snapshots and permute the warm vector.
TEST(ParallelProbe, CompactingSparseSpecMatchesSerialReference) {
    auto spec = ScenarioSpec::parse(kCompactingSpec);
    scenario::RunResult probe_run = scenario::ScenarioRunner(spec).run();
    ASSERT_GE(probe_run.compactions, 1u) << "spec never compacted";
    ASSERT_GT(probe_run.samples.size(), 10u);
    expect_matches_serial(spec);
}

// Replay compacts where the trace says; across the epoch boundary it must
// reproduce the recorded run's final lambda2 bitwise. Final-only sampling
// keeps both sides on the same (cold) solve.
TEST(ParallelProbe, ReplayAcrossCompactionReproducesFinalLambda2) {
    auto spec = ScenarioSpec::parse(kCompactingSpec);
    spec.sample_every = 0;
    auto recorded = scenario::ScenarioRunner(spec).run();
    ASSERT_GE(recorded.compactions, 1u);
    auto replayed = scenario::ScenarioRunner(spec).replay(recorded.to_trace(spec));
    EXPECT_EQ(replayed.trace_hash, recorded.trace_hash);
    EXPECT_EQ(replayed.fingerprint, recorded.fingerprint);
    EXPECT_EQ(replayed.compactions, recorded.compactions);
    ASSERT_FALSE(std::isnan(replayed.final_sample.lambda2));
    EXPECT_PRED_FORMAT2(bit_equal, replayed.final_sample.lambda2,
                        recorded.final_sample.lambda2);
    EXPECT_PRED_FORMAT2(bit_equal, replayed.final_sample.stretch,
                        recorded.final_sample.stretch);
    EXPECT_EQ(replayed.failures, recorded.failures);
}

// Warm-start accuracy pin: the run's warm-started lambda2 on the final
// healed graph must agree with a cold fresh-engine solve to probe accuracy.
// Guards against the warm chain drifting onto a stale Ritz vector while
// still matching the serial reference (which would share the bug).
TEST(ParallelProbe, WarmStartAccuracyPinned) {
    auto spec = ScenarioSpec::parse(kCompactingSpec);
    scenario::ScenarioRunner runner(spec);
    auto result = runner.run();
    ASSERT_FALSE(std::isnan(result.final_sample.lambda2));

    spectral::CsrGraph csr;
    csr.build(runner.session().current());
    double exact = spectral::ProbeEngine().lambda2_csr(csr);
    EXPECT_NEAR(result.final_sample.lambda2, exact, 1e-2);
}

// A disconnected sample solves lambda2 on the stepping thread but must
// return 0 and leave the warm-start chain as the gated serial probe leaves
// it, so the connected samples after it warm-start from the same vector.
TEST(ParallelProbe, DisconnectedSamplesMatchSerialReference) {
    auto spec = ScenarioSpec::parse(kForkShapesSpec);
    scenario::RunResult run = scenario::ScenarioRunner(spec).run();
    std::size_t first_split = run.samples.size();
    bool rejoined = false;
    for (std::size_t i = 0; i < run.samples.size(); ++i) {
        const MetricSample& s = run.samples[i];
        ASSERT_GT(s.nodes, spectral::ProbeEngine::exact_lanczos_steps) << "sample " << i;
        if (s.components > 1 && first_split == run.samples.size()) {
            first_split = i;
            EXPECT_EQ(s.lambda2, 0.0);
        }
        if (s.components == 1 && i > first_split) rejoined = true;
    }
    ASSERT_LT(first_split, run.samples.size()) << "no sample was disconnected";
    ASSERT_GT(first_split, 0u) << "no connected sample before the split";
    ASSERT_TRUE(rejoined) << "no connected sample after the split";
    expect_matches_serial(spec);
}

// The gate without the `connected` probe: components are still counted for
// lambda2, but the sample reports none.
TEST(ParallelProbe, Lambda2WithoutConnectedMatchesSerialReference) {
    auto spec = ScenarioSpec::parse(kForkShapesSpec);
    spec.probes = {"lambda2", "stretch"};
    expect_matches_serial(spec);
    spec.probes = {"lambda2"};  // no stretch: the serial, gate-first sample
    expect_matches_serial(spec);
}

// Stretch without lambda2: the stepping thread only waits at the join.
TEST(ParallelProbe, StretchWithoutLambda2MatchesSerialReference) {
    auto spec = ScenarioSpec::parse(kForkShapesSpec);
    spec.probes = {"connected", "stretch"};
    expect_matches_serial(spec);
    spec.probes = {"stretch"};
    expect_matches_serial(spec);
}

}  // namespace
}  // namespace xheal
