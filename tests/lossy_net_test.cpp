// End-to-end lossy-network tests through the scenario layer: the fault
// model rides in on phase keys (drop= / latency=), the
// retry protocol keeps repairs converging, and the Theorem 5 billing
// (messages / rounds / retries) flows into MetricSample and RunResult.
//
// The load-bearing acceptance check lives here: a drop=0.1 latency=2 run
// must produce the byte-identical event trace AND final-graph fingerprint
// of its drop=0 latency=0 twin — loss changes the bill, never the repair.
#include <gtest/gtest.h>

#include <string>

#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "scenario/trace.hpp"

using namespace xheal;
using scenario::ScenarioRunner;
using scenario::ScenarioSpec;

namespace {

/// A fixed xheal-dist schedule; `fault_keys` is appended to the storm
/// phase line ("" for the lossless twin).
ScenarioSpec dist_spec(const std::string& fault_keys) {
    std::string text =
        "name lossy-twin\n"
        "seed 77\n"
        "topology random-regular n=48 d=4\n"
        "healer xheal-dist d=2\n"
        "sample_every 8\n"
        "phase storm steps=24 delete_fraction=1 deleter=random min_nodes=12" +
        (fault_keys.empty() ? "" : " " + fault_keys) +
        "\n"
        "expect connected\n";
    return ScenarioSpec::parse(text);
}

}  // namespace

TEST(LossyNet, LossyTwinMatchesLosslessTraceAndFingerprint) {
    auto lossless = ScenarioRunner(dist_spec("")).run();
    auto lossy = ScenarioRunner(dist_spec("drop=0.1 latency=2")).run();
    ASSERT_TRUE(lossless.passed());
    ASSERT_TRUE(lossy.passed());

    // Identical adversary stream, identical repaired graph.
    EXPECT_EQ(lossy.trace_hash, lossless.trace_hash);
    EXPECT_EQ(lossy.fingerprint, lossless.fingerprint);
    EXPECT_EQ(lossy.final_sample.deletions, lossless.final_sample.deletions);

    // The bill is where the runs differ: drops force acks + re-sends, and
    // latency stretches every delivery wave.
    EXPECT_GT(lossy.final_sample.messages, lossless.final_sample.messages);
    EXPECT_GT(lossy.final_sample.rounds, lossless.final_sample.rounds);
    EXPECT_GT(lossy.final_sample.retries, 0u);
    EXPECT_EQ(lossless.final_sample.retries, 0u);
}

TEST(LossyNet, LossyRunsAreReproducible) {
    // The drop stream is seeded from the spec seed: re-running the same
    // lossy spec reproduces the billing column for column.
    auto a = ScenarioRunner(dist_spec("drop=0.15 latency=1")).run();
    auto b = ScenarioRunner(dist_spec("drop=0.15 latency=1")).run();
    EXPECT_EQ(a.trace_hash, b.trace_hash);
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_EQ(a.final_sample.messages, b.final_sample.messages);
    EXPECT_EQ(a.final_sample.rounds, b.final_sample.rounds);
    EXPECT_EQ(a.final_sample.retries, b.final_sample.retries);
}

TEST(LossyNet, PinnedBillingForKnownSchedule) {
    // Regression pin: the exact Theorem 5 bill of the lossless twin.
    // These are deterministic functions of (seed 77, the schedule above,
    // the protocol's message model); a change means the protocol's cost
    // accounting changed and must be re-justified, not waved through.
    auto result = ScenarioRunner(dist_spec("")).run();
    ASSERT_TRUE(result.passed());
    EXPECT_EQ(result.final_sample.deletions, 24u);
    EXPECT_EQ(result.final_sample.messages, 923u);
    EXPECT_EQ(result.final_sample.rounds, 161u);
    EXPECT_EQ(result.final_sample.retries, 0u);

    // Cadence samples carry the cumulative bill monotonically.
    ASSERT_GE(result.samples.size(), 2u);
    std::size_t prev_messages = 0, prev_rounds = 0;
    for (const auto& s : result.samples) {
        EXPECT_GE(s.messages, prev_messages);
        EXPECT_GE(s.rounds, prev_rounds);
        prev_messages = s.messages;
        prev_rounds = s.rounds;
    }
    EXPECT_EQ(result.samples.back().messages, result.final_sample.messages);
}

TEST(LossyNet, ReplayReproducesTheBill) {
    // Replaying the recorded event stream re-executes the protocol with the
    // phase fault model applied at the same boundaries: hashes AND billing
    // must match the recording run.
    auto spec = dist_spec("drop=0.1 latency=2");
    auto recorded = ScenarioRunner(spec).run();
    auto trace = recorded.to_trace(spec);
    auto replayed = ScenarioRunner(spec).replay(trace);
    EXPECT_EQ(replayed.trace_hash, recorded.trace_hash);
    EXPECT_EQ(replayed.fingerprint, recorded.fingerprint);
    EXPECT_EQ(replayed.final_sample.messages, recorded.final_sample.messages);
    EXPECT_EQ(replayed.final_sample.rounds, recorded.final_sample.rounds);
    EXPECT_EQ(replayed.final_sample.retries, recorded.final_sample.retries);
}

TEST(LossyNet, PhaseFaultKeysOverridePerPhase) {
    // drop= on one phase only: the lossy phase bills retries, the clean
    // phases are lossless, and the whole
    // run still matches the all-lossless twin's repaired graph.
    auto make = [](const std::string& middle_keys) {
        std::string text =
            "name phase-faults\n"
            "seed 31\n"
            "topology random-regular n=40 d=4\n"
            "healer xheal-dist d=2\n"
            "sample_every 0\n"
            "phase calm1 steps=6 delete_fraction=1 deleter=random min_nodes=10\n"
            "phase storm steps=6 delete_fraction=1 deleter=random min_nodes=10" +
            (middle_keys.empty() ? "" : " " + middle_keys) +
            "\n"
            "phase calm2 steps=6 delete_fraction=1 deleter=random min_nodes=10\n";
        return ScenarioSpec::parse(text);
    };
    auto clean = ScenarioRunner(make("")).run();
    auto stormy = ScenarioRunner(make("drop=0.2")).run();
    EXPECT_EQ(stormy.trace_hash, clean.trace_hash);
    EXPECT_EQ(stormy.fingerprint, clean.fingerprint);
    EXPECT_GT(stormy.final_sample.retries, 0u);
    EXPECT_GT(stormy.final_sample.messages, clean.final_sample.messages);
}
