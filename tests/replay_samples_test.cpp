// Replay reproduces run()'s metric trajectory, not just its end state.
// run() and replay() feed the same event-apply core (scenario/stepper.hpp)
// and replay walks run()'s step boundaries, so replay(run.to_trace(spec))
// must return run()'s MetricSample rows — every field but the wall-clock
// probe_seconds, doubles compared bitwise — plus its steps_done, per-phase
// stats, compaction count and slot accounting.
//
// The specs cover the heavy probes (lambda2 warm-start chain, stretch
// sources drawn from the probe stream), a batched adversary (flush points
// at cadence boundaries and phase changes), compaction epochs, and a run
// whose last steps record no event at all (the walk must not stop at the
// last recorded event).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>

#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "util/stats.hpp"

namespace xheal {
namespace {

using scenario::MetricSample;
using scenario::PhaseResult;
using scenario::RunResult;
using scenario::ScenarioRunner;
using scenario::ScenarioSpec;

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

void expect_same_sample(const MetricSample& a, const MetricSample& b) {
    SCOPED_TRACE("sample at step " + std::to_string(a.step));
    EXPECT_EQ(a.step, b.step);
    EXPECT_EQ(a.phase, b.phase);
    EXPECT_EQ(a.nodes, b.nodes);
    EXPECT_EQ(a.edges, b.edges);
    EXPECT_EQ(a.deletions, b.deletions);
    EXPECT_EQ(a.insertions, b.insertions);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.components, b.components);
    EXPECT_EQ(a.max_degree, b.max_degree);
    EXPECT_PRED_FORMAT2(bit_equal, a.max_degree_ratio, b.max_degree_ratio);
    EXPECT_PRED_FORMAT2(bit_equal, a.mean_degree_ratio, b.mean_degree_ratio);
    EXPECT_PRED_FORMAT2(bit_equal, a.worst_slack_ratio, b.worst_slack_ratio);
    EXPECT_PRED_FORMAT2(bit_equal, a.expansion, b.expansion);
    EXPECT_PRED_FORMAT2(bit_equal, a.lambda2, b.lambda2);
    EXPECT_PRED_FORMAT2(bit_equal, a.stretch, b.stretch);
}

void expect_same_stats(const util::RunningStats& a, const util::RunningStats& b) {
    EXPECT_EQ(a.count(), b.count());
    EXPECT_PRED_FORMAT2(bit_equal, a.mean(), b.mean());
    EXPECT_PRED_FORMAT2(bit_equal, a.min(), b.min());
    EXPECT_PRED_FORMAT2(bit_equal, a.max(), b.max());
}

void expect_same_phase(const PhaseResult& a, const PhaseResult& b) {
    SCOPED_TRACE("phase " + a.name);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.deletions, b.deletions);
    EXPECT_EQ(a.insertions, b.insertions);
    EXPECT_EQ(a.skipped, b.skipped);
    EXPECT_EQ(a.totals.edges_added, b.totals.edges_added);
    EXPECT_EQ(a.totals.edges_removed, b.totals.edges_removed);
    EXPECT_EQ(a.totals.clouds_touched, b.totals.clouds_touched);
    EXPECT_EQ(a.totals.combines, b.totals.combines);
    EXPECT_EQ(a.totals.combine_members, b.totals.combine_members);
    EXPECT_EQ(a.totals.rebuilds, b.totals.rebuilds);
    EXPECT_EQ(a.totals.messages, b.totals.messages);
    EXPECT_EQ(a.totals.rounds, b.totals.rounds);
    EXPECT_EQ(a.totals.retries, b.totals.retries);
    expect_same_stats(a.rounds, b.rounds);
    expect_same_stats(a.victim_degree, b.victim_degree);
}

/// Run `spec`, strict-replay its trace on a fresh runner, and compare.
/// Returns the run for spec-specific checks.
RunResult expect_replay_reproduces_run(const ScenarioSpec& spec) {
    RunResult run = ScenarioRunner(spec).run();
    RunResult replay = ScenarioRunner(spec).replay(run.to_trace(spec));

    EXPECT_EQ(replay.trace_hash, run.trace_hash);
    EXPECT_EQ(replay.fingerprint, run.fingerprint);
    EXPECT_EQ(replay.steps_done, run.steps_done);
    EXPECT_EQ(replay.compactions, run.compactions);
    EXPECT_EQ(replay.peak_slot_count, run.peak_slot_count);
    EXPECT_EQ(replay.live_high_water, run.live_high_water);
    EXPECT_EQ(replay.failures, run.failures);

    EXPECT_EQ(replay.samples.size(), run.samples.size());
    for (std::size_t i = 0; i < std::min(replay.samples.size(), run.samples.size()); ++i)
        expect_same_sample(replay.samples[i], run.samples[i]);
    expect_same_sample(replay.final_sample, run.final_sample);

    EXPECT_EQ(replay.phases.size(), run.phases.size());
    for (std::size_t i = 0; i < std::min(replay.phases.size(), run.phases.size()); ++i)
        expect_same_phase(replay.phases[i], run.phases[i]);
    return run;
}

// lambda2 (warm-start chain) and stretch (sources drawn from the probe
// stream at every sample) both depend on the whole sample sequence.
TEST(ReplaySamples, P2pChurnHeavyProbes) {
    auto spec = ScenarioSpec::parse_file(spec_path("p2p_churn.scn"));
    RunResult run = expect_replay_reproduces_run(spec);
    EXPECT_GT(run.samples.size(), 5u);
}

// batch=16 then batch=8: cadence boundaries and the phase change are flush
// points, so replay's flush grouping must be run()'s.
TEST(ReplaySamples, BatchedFailures) {
    auto spec = ScenarioSpec::parse_file(spec_path("batch_failures.scn"));
    RunResult run = expect_replay_reproduces_run(spec);
    EXPECT_GE(run.samples.size(), 4u);
}

TEST(ReplaySamples, CompactingSpec) {
    auto spec = ScenarioSpec::parse(R"(
name replay-compact
seed 5
topology random-regular n=60 d=4
healer xheal d=2
probes connected degree lambda2
sample_every 10
phase churn steps=200 delete_fraction=0.6 deleter=random inserter=random-attach k=3 min_nodes=30 compact=2
)");
    RunResult run = expect_replay_reproduces_run(spec);
    EXPECT_GE(run.compactions, 1u);
}

// Five deletions, then 25 steps at the population floor that record no
// event: replay must still walk all 30 steps and take all six samples.
const char* kEventlessTail = R"(
name eventless-tail
seed 3
topology cycle n=20
healer xheal d=2
probes connected degree
sample_every 5
phase drain steps=30 delete_fraction=1 deleter=random min_nodes=15
)";

TEST(ReplaySamples, EventlessTail) {
    auto spec = ScenarioSpec::parse(kEventlessTail);
    RunResult run = expect_replay_reproduces_run(spec);
    EXPECT_EQ(run.steps_done, 30u);
    EXPECT_EQ(run.samples.size(), 6u);
    EXPECT_EQ(run.events.back().step, 4u);
    EXPECT_EQ(run.phases[0].skipped, 25u);
}

// The walk is bounded by the schedule and the stream: a step past both, or
// a step that goes backwards, is a divergence rather than a (possibly
// endless) walk.
TEST(ReplaySamples, StepsOutsideTheWalkDiverge) {
    auto spec = ScenarioSpec::parse(kEventlessTail);
    auto trace = ScenarioRunner(spec).run().to_trace(spec);
    ASSERT_EQ(trace.events.size(), 5u);
    auto far = trace;
    far.events.back().step = 1'000'000'000'000ull;
    EXPECT_THROW(ScenarioRunner(spec).replay(far), std::runtime_error);
    auto backwards = trace;
    backwards.events[2].step = 0;
    EXPECT_THROW(ScenarioRunner(spec).replay(backwards), std::runtime_error);
}

}  // namespace
}  // namespace xheal
