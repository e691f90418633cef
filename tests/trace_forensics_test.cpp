// Trace-forensics subsystem tests: executor canonicalization + oracle
// wiring, InvariantSuite findings, fuzzer determinism and bug-finding,
// ddmin shrinking, and the seeded end-to-end demo of the acceptance
// criteria — a fault-injected healer is caught by the fuzzer, shrunk to a
// tiny reproducer, and the emitted (.scn, .jsonl) pair replays
// byte-for-byte through the strict ScenarioRunner::replay path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "core/fault_injection.hpp"
#include "core/invariants.hpp"
#include "scenario/runner.hpp"
#include "trace_tools/executor.hpp"
#include "trace_tools/fuzz.hpp"
#include "trace_tools/shrink.hpp"

using namespace xheal;
using scenario::ScenarioRunner;
using scenario::ScenarioSpec;
using scenario::TraceEvent;
using trace_tools::ExecOptions;
using trace_tools::TraceExecutor;

namespace {

ScenarioSpec healthy_spec() {
    return ScenarioSpec::parse(R"(
name healthy-churn
seed 21
topology random-regular n=32 d=4
healer xheal d=2
phase churn steps=40 delete_fraction=0.5 deleter=random inserter=random-attach k=3 min_nodes=8
expect connected
)");
}

/// The intentionally-broken healer of the acceptance demo: every 4th
/// deletion is applied without repair (core::FaultInjectingHealer wrapping
/// the stateless cycle baseline).
ScenarioSpec faulty_spec() {
    return ScenarioSpec::parse(R"(
name faulty-demo
seed 11
topology cycle n=24
healer faulty inner=cycle drop_every=4
phase churn steps=40 delete_fraction=0.7 deleter=random inserter=random-attach k=2 min_nodes=4
expect connected
)");
}

}  // namespace

TEST(InvariantSuite, CleanSessionProducesNoFindings) {
    auto spec = healthy_spec();
    ScenarioRunner runner(spec);
    runner.run();
    core::InvariantSuite suite(runner.kappa());
    std::vector<core::InvariantFinding> findings;
    suite.check_structural(runner.session(), findings);
    EXPECT_TRUE(findings.empty()) << findings[0].oracle << ": " << findings[0].message;
}

TEST(InvariantSuite, HooksAndSpectralFloorFire) {
    auto spec = healthy_spec();
    ScenarioRunner runner(spec);
    runner.run();
    core::InvariantSuite suite(runner.kappa());
    suite.add_hook("always-fails",
                   [](const core::HealingSession&) { return std::string("boom"); });
    // An absurd floor: every finite lambda2 reading violates it.
    suite.set_lambda2_floor(10.0, [](const graph::Graph&) { return 0.5; });
    std::vector<core::InvariantFinding> findings;
    suite.check_structural(runner.session(), findings);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].oracle, "always-fails");
    EXPECT_EQ(findings[0].message, "boom");
    findings.clear();
    suite.check_spectral(runner.session(), findings);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].oracle, "lambda2-floor");
}

TEST(TraceExecutor, CanonicalStreamOfARecordedRunReplaysByteForByte) {
    auto spec = healthy_spec();
    auto recorded = ScenarioRunner(spec).run();

    TraceExecutor executor;
    auto exec = executor.execute(spec, recorded.events);
    EXPECT_FALSE(exec.failed());
    EXPECT_EQ(exec.skipped, 0u);
    ASSERT_EQ(exec.applied.size(), recorded.events.size());
    EXPECT_EQ(exec.trace_hash, recorded.trace_hash);
    EXPECT_EQ(exec.fingerprint, recorded.fingerprint);

    // The canonical trace goes through the *strict* replay path untouched.
    auto replayed = ScenarioRunner(spec).replay(exec.to_trace(spec));
    EXPECT_EQ(replayed.trace_hash, recorded.trace_hash);
    EXPECT_EQ(replayed.fingerprint, recorded.fingerprint);
}

// Batched phases go through the same flush points as run() and replay(),
// and a due oracle check waits for the flush, so checking after every
// event reports no false connectivity break in the middle of a batch and
// the canonical stream strict-replays to the executor's own hashes.
TEST(TraceExecutor, BatchedStreamReplaysStrictly) {
    auto spec = ScenarioSpec::parse_file(std::string(XHEAL_REPO_DIR) +
                                         "/scenarios/batch_failures.scn");
    auto recorded = ScenarioRunner(spec).run();

    ExecOptions options;
    options.check_every = 1;
    TraceExecutor executor(options);
    auto exec = executor.execute(spec, recorded.events);
    EXPECT_FALSE(exec.failed()) << exec.violations[0].oracle << ": "
                                << exec.violations[0].message;
    EXPECT_EQ(exec.skipped, 0u);
    // Every step of the run recorded one event, so the canonical stream is
    // the recorded one.
    EXPECT_EQ(exec.trace_hash, recorded.trace_hash);
    EXPECT_EQ(exec.fingerprint, recorded.fingerprint);

    auto replayed = ScenarioRunner(spec).replay(exec.to_trace(spec));
    EXPECT_EQ(replayed.trace_hash, exec.trace_hash);
    EXPECT_EQ(replayed.fingerprint, exec.fingerprint);
}

TEST(TraceExecutor, SkipsInfeasibleEventsAndRenumbersSteps) {
    auto spec = healthy_spec();
    auto events = ScenarioRunner(spec).run().events;

    // Sabotage the stream: a delete of a node that never existed, a
    // duplicate of the first delete (dead on second application), and an
    // insert attached only to that dead node.
    std::vector<TraceEvent> mutated;
    TraceEvent ghost;
    ghost.kind = TraceEvent::Kind::remove;
    ghost.node = 9999;
    mutated.push_back(ghost);
    for (const auto& e : events) mutated.push_back(e);
    auto first_delete = std::find_if(events.begin(), events.end(), [](const auto& e) {
        return e.kind == TraceEvent::Kind::remove;
    });
    ASSERT_NE(first_delete, events.end());
    mutated.push_back(*first_delete);  // already dead
    TraceEvent orphan;
    orphan.kind = TraceEvent::Kind::insert;
    orphan.neighbors = {first_delete->node};
    mutated.push_back(orphan);

    TraceExecutor executor;
    auto exec = executor.execute(spec, mutated);
    EXPECT_EQ(exec.skipped, 3u);
    ASSERT_EQ(exec.applied.size(), events.size());
    for (std::size_t i = 0; i < exec.applied.size(); ++i)
        EXPECT_EQ(exec.applied[i].step, i);
    // Same feasible events in the same order => same final graph.
    auto clean = executor.execute(spec, events);
    EXPECT_EQ(exec.fingerprint, clean.fingerprint);
}

TEST(TraceExecutor, InsertNeighborsAreFilteredToTheLiveSet) {
    auto spec = ScenarioSpec::parse(R"(
name tiny
seed 2
topology cycle n=6
healer cycle
phase p steps=1 delete_fraction=1 deleter=random min_nodes=1
)");
    // Delete node 0, then insert referencing 0 (dead), 1 and 1 (dup), 42
    // (never existed).
    std::vector<TraceEvent> events;
    TraceEvent del;
    del.kind = TraceEvent::Kind::remove;
    del.node = 0;
    events.push_back(del);
    TraceEvent ins;
    ins.kind = TraceEvent::Kind::insert;
    ins.neighbors = {1, 0, 1, 42};
    events.push_back(ins);

    TraceExecutor executor;
    auto exec = executor.execute(spec, events);
    ASSERT_EQ(exec.applied.size(), 2u);
    EXPECT_EQ(exec.applied[1].neighbors, (std::vector<graph::NodeId>{1}));
    EXPECT_EQ(exec.applied[1].node, 6u);  // session-assigned id
    EXPECT_FALSE(exec.failed());
}

TEST(TraceExecutor, FaultyHealerViolationIsLocalizedAndCutsTheStream) {
    auto spec = faulty_spec();
    auto events = ScenarioRunner(spec).run().events;
    TraceExecutor executor;
    auto exec = executor.execute(spec, events);
    ASSERT_TRUE(exec.failed());
    EXPECT_EQ(exec.violations[0].oracle, "connectivity");
    // stop_on_violation: the canonical stream ends at the breaking event.
    EXPECT_EQ(exec.violations[0].event_index, exec.applied.size() - 1);
    EXPECT_LT(exec.applied.size(), events.size());
}

TEST(TraceExecutor, Lambda2FloorOracleFiresThroughTheProbeEngine) {
    // A 24-cycle's normalized-Laplacian lambda2 is ~2(1-cos(2*pi/24)) ≈
    // 0.068 — far below the floor; the probe engine must report it.
    auto spec = ScenarioSpec::parse(R"(
name lambda2-floor
seed 2
topology cycle n=24
healer cycle
phase p steps=1 delete_fraction=1 deleter=random min_nodes=1
)");
    ExecOptions options;
    options.lambda2_floor = 0.5;
    TraceExecutor executor(options);
    auto exec = executor.execute(spec, {});
    ASSERT_EQ(exec.violations.size(), 1u);
    EXPECT_EQ(exec.violations[0].oracle, "lambda2-floor");

    // A complete graph clears the same floor (lambda2 = n/(n-1) > 1).
    auto dense = ScenarioSpec::parse(R"(
name lambda2-ok
seed 2
topology complete n=12
healer cycle
phase p steps=1 delete_fraction=1 deleter=random min_nodes=1
)");
    EXPECT_FALSE(executor.execute(dense, {}).failed());
}

// execute() is a pure function of (spec, events): an executor that first
// ran another stream must read the same findings as a fresh one. Above the
// dense limit the lambda2 oracle runs budgeted Lanczos, whose warm start
// would otherwise carry the previous execution's Ritz vector.
TEST(TraceExecutor, EarlierExecutionsDoNotChangeTheResult) {
    auto spec = ScenarioSpec::parse(R"(
name pure-exec
seed 4
topology hgraph n=400 d=3
healer xheal d=2
phase churn steps=60 delete_fraction=0.6 deleter=random inserter=random-attach k=3
)");
    auto recorded = ScenarioRunner(spec).run();
    std::vector<TraceEvent> prefix(recorded.events.begin(),
                                   recorded.events.begin() + recorded.events.size() / 2);

    ExecOptions options;
    options.check_every = 0;
    options.lambda2_floor = 10.0;  // every reading violates: the message carries it
    auto fresh = TraceExecutor(options).execute(spec, recorded.events);

    TraceExecutor reused(options);
    reused.execute(spec, prefix);
    auto again = reused.execute(spec, recorded.events);

    EXPECT_EQ(again.trace_hash, fresh.trace_hash);
    EXPECT_EQ(again.fingerprint, fresh.fingerprint);
    ASSERT_EQ(fresh.violations.size(), 1u);
    ASSERT_EQ(again.violations.size(), 1u);
    EXPECT_EQ(fresh.violations[0].oracle, "lambda2-floor");
    EXPECT_EQ(again.violations[0].event_index, fresh.violations[0].event_index);
    EXPECT_EQ(again.violations[0].message, fresh.violations[0].message);
}

TEST(TraceFuzzer, SameSeedReproducesTheSameReport) {
    trace_tools::FuzzOptions options;
    options.candidates = 12;
    options.seed = 5;
    auto a = trace_tools::TraceFuzzer(faulty_spec(), options).run();
    auto b = trace_tools::TraceFuzzer(faulty_spec(), options).run();
    ASSERT_EQ(a.findings.size(), b.findings.size());
    ASSERT_FALSE(a.findings.empty());
    for (std::size_t i = 0; i < a.findings.size(); ++i) {
        EXPECT_EQ(a.findings[i].candidate, b.findings[i].candidate);
        EXPECT_EQ(a.findings[i].mutator, b.findings[i].mutator);
        EXPECT_EQ(a.findings[i].exec.trace_hash, b.findings[i].exec.trace_hash);
    }
}

TEST(TraceFuzzer, HealthySpecSurvivesAFuzzRound) {
    trace_tools::FuzzOptions options;
    options.candidates = 30;
    options.seed = 17;
    auto report = trace_tools::TraceFuzzer(healthy_spec(), options).run();
    EXPECT_EQ(report.candidates_run, 30u);
    EXPECT_TRUE(report.clean())
        << report.findings[0].mutator << ": "
        << report.findings[0].exec.violations[0].oracle << " — "
        << report.findings[0].exec.violations[0].message;
}

TEST(TraceShrinker, NonFailingInputIsReportedNotShrunk) {
    auto spec = healthy_spec();
    auto events = ScenarioRunner(spec).run().events;
    auto result = trace_tools::shrink(spec, events);
    EXPECT_FALSE(result.input_failed);
}

// The acceptance-criteria demo, end to end: fuzz catches the intentionally
// broken healer, shrink reduces the stream to <= 25 events, and the emitted
// reproducer pair replays byte-for-byte through the strict path.
TEST(TraceForensicsDemo, FuzzCatchesShrinksAndReproducesTheInjectedBug) {
    auto spec = faulty_spec();

    // 1. Fuzz: the broken healer cannot survive mutated churn.
    trace_tools::FuzzOptions fuzz_options;
    fuzz_options.candidates = 20;
    fuzz_options.seed = 3;
    auto report = trace_tools::TraceFuzzer(spec, fuzz_options).run();
    ASSERT_FALSE(report.clean());
    const auto& finding = report.findings.front();

    // 2. Shrink: ddmin the finding to a minimal reproducer.
    auto shrunk = trace_tools::shrink(finding.spec, finding.events);
    ASSERT_TRUE(shrunk.input_failed);
    EXPECT_LE(shrunk.final_events(), 25u);
    EXPECT_LT(shrunk.final_events(), finding.events.size());
    ASSERT_TRUE(shrunk.exec.failed());
    EXPECT_EQ(shrunk.exec.violations[0].oracle, "connectivity");

    // 3. Reproducer: write the pair, read it back, strict-replay it.
    std::string base = testing::TempDir() + "xheal_forensics_demo";
    auto [scn_path, trace_path] =
        trace_tools::write_reproducer(base, finding.spec, shrunk);
    auto respec = ScenarioSpec::parse_file(scn_path);
    auto retrace = scenario::read_trace_file(trace_path);
    EXPECT_EQ(retrace.spec_hash, respec.content_hash());
    EXPECT_EQ(retrace.events.size(), shrunk.final_events());

    auto replayed = ScenarioRunner(respec).replay(retrace);
    EXPECT_EQ(replayed.trace_hash, retrace.trace_hash);
    EXPECT_EQ(replayed.fingerprint, retrace.fingerprint);

    // 4. The reproducer still demonstrates the violation when re-executed
    //    under the oracles (what `xheal_run shrink` re-confirms).
    TraceExecutor executor;
    auto reexec = executor.execute(respec, retrace.events);
    ASSERT_TRUE(reexec.failed());
    EXPECT_EQ(reexec.violations[0].oracle, "connectivity");
    EXPECT_EQ(reexec.trace_hash, retrace.trace_hash);

    std::remove(scn_path.c_str());
    std::remove(trace_path.c_str());
}
