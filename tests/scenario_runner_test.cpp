// Engine-layer tests: scenario determinism (same spec + seed => identical
// trace hash), byte-for-byte replay (identical final-graph fingerprint),
// trace JSONL round-trip, schedule semantics (burst, fallback, floors),
// expectation evaluation, the session alive-pool invariant the
// strategies sample from, and the verdict of every bundled spec.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <utility>

#include "scenario/runner.hpp"
#include "util/table.hpp"

using namespace xheal;
using scenario::ScenarioRunner;
using scenario::ScenarioSpec;

namespace {

ScenarioSpec star_collapse_spec() {
    return ScenarioSpec::parse(R"(
name star-collapse
seed 7
topology star leaves=48
healer xheal d=3
phase kill steps=1 delete_fraction=1 deleter=max-degree min_nodes=1
expect connected
)");
}

ScenarioSpec phased_churn_spec() {
    return ScenarioSpec::parse(R"(
name phased-churn
seed 42
topology random-regular n=32 d=4
healer xheal d=2
phase grow steps=25 delete_fraction=0.2 deleter=random inserter=preferential-attach k=3 min_nodes=8
phase churn steps=40 delete_fraction=0.5 deleter=random inserter=random-attach k=3 min_nodes=8
phase assault steps=10 delete_fraction=1 deleter=max-degree min_nodes=12
expect connected
)");
}

ScenarioSpec bridge_hunter_spec() {
    return ScenarioSpec::parse(R"(
name bridge-hunter
seed 29
topology erdos-renyi n=48 p=0.13
healer xheal d=2 seed=17
phase starve steps=30 delete_fraction=1 deleter=bridge-hunter min_nodes=6
expect connected
)");
}

}  // namespace

class ScenarioDeterminism : public ::testing::TestWithParam<int> {
protected:
    ScenarioSpec spec() const {
        switch (GetParam()) {
            case 0: return star_collapse_spec();
            case 1: return phased_churn_spec();
            default: return bridge_hunter_spec();
        }
    }
};

TEST_P(ScenarioDeterminism, SameSpecAndSeedYieldIdenticalTraceHash) {
    auto first = ScenarioRunner(spec()).run();
    auto second = ScenarioRunner(spec()).run();
    EXPECT_EQ(first.trace_hash, second.trace_hash);
    EXPECT_EQ(first.fingerprint, second.fingerprint);
    EXPECT_EQ(first.events.size(), second.events.size());
    EXPECT_TRUE(first.passed()) << (first.failures.empty() ? "" : first.failures[0]);
}

TEST_P(ScenarioDeterminism, ReplayReproducesTheFinalGraphByteForByte) {
    auto s = spec();
    auto recorded = ScenarioRunner(s).run();
    auto trace = recorded.to_trace(s);

    // Serialize + parse the JSONL in between, as xheal_run replay does.
    std::stringstream io;
    scenario::write_trace(io, trace);
    auto loaded = scenario::read_trace(io);
    EXPECT_EQ(loaded.trace_hash, recorded.trace_hash);
    EXPECT_EQ(loaded.events.size(), recorded.events.size());
    EXPECT_EQ(loaded.spec_hash, s.content_hash());

    auto replayed = ScenarioRunner(s).replay(loaded);
    EXPECT_EQ(replayed.trace_hash, recorded.trace_hash);
    EXPECT_EQ(replayed.fingerprint, recorded.fingerprint);
}

TEST_P(ScenarioDeterminism, DifferentSeedPerturbsTheTrace) {
    auto s = spec();
    auto base = ScenarioRunner(s).run();
    s.seed += 1;
    auto shifted = ScenarioRunner(s).run();
    // Star collapse is a single forced deletion — the event stream is
    // seed-independent, but every stochastic schedule must diverge.
    if (GetParam() != 0) EXPECT_NE(base.trace_hash, shifted.trace_hash);
    // The healer's private randomness always moves with the seed.
    EXPECT_NE(base.fingerprint, shifted.fingerprint);
}

INSTANTIATE_TEST_SUITE_P(Specs, ScenarioDeterminism, ::testing::Values(0, 1, 2));

TEST(ScenarioRunner, AlivePoolMatchesTheGraphThroughoutChurn) {
    auto spec = phased_churn_spec();
    ScenarioRunner runner(spec);
    runner.run();
    const auto& session = runner.session();
    const auto& pool = session.alive_pool();
    auto view = session.current().nodes();
    std::vector<graph::NodeId> expected(view.begin(), view.end());
    std::vector<graph::NodeId> got(pool.begin(), pool.end());
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected);
    EXPECT_EQ(pool.size(), session.current().node_count());
}

TEST(ScenarioRunner, BurstMultipliesEventsPerStep) {
    auto spec = ScenarioSpec::parse(R"(
name burst
seed 3
topology cycle n=12
healer no-heal
phase grow steps=10 burst=3 delete_fraction=0 inserter=random-attach k=2
)");
    auto result = ScenarioRunner(spec).run();
    EXPECT_EQ(result.steps_done, 10u);
    EXPECT_EQ(result.events.size(), 30u);
    EXPECT_EQ(result.phases[0].insertions, 30u);
}

TEST(ScenarioRunner, BlockedDeleteFallsBackToInsertInMixedPhases) {
    // Population floor equals the start size, so every delete is blocked
    // and the mixed phase must insert instead of stalling.
    auto spec = ScenarioSpec::parse(R"(
name floor
seed 5
topology cycle n=8
healer no-heal
phase churn steps=20 delete_fraction=0.9 deleter=random inserter=random-attach k=2 min_nodes=64
)");
    auto result = ScenarioRunner(spec).run();
    EXPECT_EQ(result.phases[0].deletions, 0u);
    EXPECT_EQ(result.phases[0].insertions, 20u);
    EXPECT_EQ(result.phases[0].skipped, 0u);
}

TEST(ScenarioRunner, DeletionOnlyPhaseRespectsThePopulationFloor) {
    auto spec = ScenarioSpec::parse(R"(
name floor-only
seed 5
topology cycle n=10
healer no-heal
phase drain steps=20 delete_fraction=1 deleter=random min_nodes=6
)");
    auto result = ScenarioRunner(spec).run();
    EXPECT_EQ(result.phases[0].deletions, 4u);  // 10 -> 6, then floor holds
    EXPECT_EQ(result.phases[0].skipped, 16u);
    EXPECT_EQ(ScenarioRunner(spec).run().final_sample.nodes, 6u);
}

TEST(ScenarioRunner, FailedExpectationProducesAFailVerdict) {
    auto spec = ScenarioSpec::parse(R"(
name impossible
seed 5
topology cycle n=16
healer no-heal
phase drain steps=4 delete_fraction=1 deleter=random min_nodes=4
expect nodes >= 100
)");
    auto result = ScenarioRunner(spec).run();
    EXPECT_FALSE(result.passed());
    ASSERT_EQ(result.failures.size(), 1u);
    EXPECT_NE(result.failures[0].find("nodes"), std::string::npos);
}

TEST(ScenarioRunner, BillingCeilingOneBelowTheMeasuredBillFails) {
    // The lossy_net drop=0.2 spec bills messages, rounds and retries alike;
    // each ceiling holds at the measured bill and fails one below it.
    const ScenarioSpec base = ScenarioSpec::parse_file(
        std::string(XHEAL_REPO_DIR) + "/scenarios/packs/lossy_net/drop020.scn");
    const scenario::MetricSample fin = ScenarioRunner(base).run().final_sample;
    ASSERT_GT(fin.deletions, 0u);
    ASSERT_GT(fin.retries, 0u);
    const std::pair<scenario::Expectation::Kind, std::size_t> bills[] = {
        {scenario::Expectation::Kind::messages_per_delete_le, fin.messages},
        {scenario::Expectation::Kind::rounds_per_delete_le, fin.rounds},
        {scenario::Expectation::Kind::retries_per_delete_le, fin.retries},
    };
    for (const auto& [kind, billed] : bills) {
        const std::string name(scenario::expectation_metric(kind).name);
        SCOPED_TRACE(name);
        const double bill = static_cast<double>(billed) / static_cast<double>(fin.deletions);
        ScenarioSpec spec = base;
        spec.expectations = {{kind, bill}};
        EXPECT_TRUE(ScenarioRunner(spec).run().passed());
        spec.expectations = {{kind, bill - 1.0}};
        const scenario::RunResult result = ScenarioRunner(spec).run();
        EXPECT_FALSE(result.passed());
        ASSERT_EQ(result.failures.size(), 1u);
        EXPECT_EQ(result.failures[0], name + ": wanted <= " +
                                          util::format_shortest(bill - 1.0) + ", got " +
                                          util::format_shortest(bill));
    }
}

TEST(ScenarioRunner, BillingClauseOverNoDeletionsFails) {
    // A bill per deletion cannot pass vacuously: the protocol never ran.
    auto spec = ScenarioSpec::parse(R"(
name insert-only
seed 5
topology cycle n=16
healer xheal-dist
phase grow steps=8 delete_fraction=0
expect messages_per_delete <= 1000
)");
    auto result = ScenarioRunner(spec).run();
    EXPECT_EQ(result.final_sample.deletions, 0u);
    EXPECT_FALSE(result.passed());
    ASSERT_EQ(result.failures.size(), 1u);
    EXPECT_EQ(result.failures[0], "messages_per_delete: wanted <= 1000, got no deletions");
}

TEST(ScenarioRunner, FailureTextShowsTheShortestRoundTripValues) {
    // Six fixed decimals printed both sides of this miss as 0.000000; the
    // shortest round-trip text says by how much it missed.
    auto spec = ScenarioSpec::parse(R"(
name split-path
seed 5
topology path n=40
healer no-heal
phase cut steps=1 delete_fraction=1 deleter=max-degree
expect lambda2 >= 4e-07
)");
    auto result = ScenarioRunner(spec).run();
    ASSERT_EQ(result.failures.size(), 1u);
    EXPECT_EQ(result.failures[0], "lambda2: wanted >= 4e-07, got 0");

    spec = ScenarioSpec::parse(R"(
name whole-path
seed 5
topology path n=40
healer no-heal
phase held steps=1 delete_fraction=1 deleter=random min_nodes=40
expect lambda2 >= 0.5
)");
    result = ScenarioRunner(spec).run();
    ASSERT_EQ(result.failures.size(), 1u);
    EXPECT_EQ(result.failures[0].rfind("lambda2: wanted >= 0.5, got 0.00", 0), 0u)
        << result.failures[0];
}

TEST(ScenarioRunner, ZeroSampleEveryMeansFinalSampleOnly) {
    // sample_every = 0 is the documented "final-only" cadence: exactly one
    // sample, which IS the final sample, carrying the expectation probes.
    auto spec = phased_churn_spec();
    spec.sample_every = 0;
    spec.probes = {"connected", "degree"};
    auto result = ScenarioRunner(spec).run();
    ASSERT_EQ(result.samples.size(), 1u);
    EXPECT_EQ(result.samples[0].step, result.final_sample.step);
    EXPECT_EQ(result.samples[0].nodes, result.final_sample.nodes);
    EXPECT_EQ(result.samples[0].components, result.final_sample.components);
    EXPECT_EQ(result.final_sample.step, result.steps_done);
}

TEST(ScenarioRunner, CadenceCoincidingWithTheLastStepIsNotDuplicated) {
    // 75 total steps, cadence 25: samples at 25 and 50; the would-be step-75
    // cadence point folds into the final sample instead of duplicating it.
    auto spec = phased_churn_spec();
    spec.sample_every = 25;
    auto result = ScenarioRunner(spec).run();
    ASSERT_EQ(result.samples.size(), 3u);
    EXPECT_EQ(result.samples[0].step, 25u);
    EXPECT_EQ(result.samples[1].step, 50u);
    EXPECT_EQ(result.samples[2].step, 75u);  // the final sample
    EXPECT_EQ(result.final_sample.step, 75u);
}

TEST(ScenarioRunner, CadenceLargerThanTheScheduleYieldsFinalSampleOnly) {
    auto spec = phased_churn_spec();
    spec.sample_every = 1000;  // > total steps (75)
    auto result = ScenarioRunner(spec).run();
    ASSERT_EQ(result.samples.size(), 1u);
    EXPECT_EQ(result.samples[0].step, result.steps_done);
}

TEST(ScenarioRunner, ProbeCostIsAccountedPerSampleAndPerRun) {
    auto spec = phased_churn_spec();
    spec.sample_every = 10;
    spec.probes = {"connected", "degree", "lambda2", "stretch"};
    auto result = ScenarioRunner(spec).run();
    double sum = 0.0;
    for (const auto& s : result.samples) {
        EXPECT_GE(s.probe_seconds, 0.0);
        sum += s.probe_seconds;
    }
    EXPECT_NEAR(result.probe_seconds, sum, 1e-9);
    // `seconds` measures stepping only; probe cost is accounted separately.
    EXPECT_GE(result.seconds, 0.0);
}

TEST(ScenarioRunner, SamplingCadenceDoesNotPerturbTheTrace) {
    auto base_spec = phased_churn_spec();
    auto probed_spec = phased_churn_spec();
    probed_spec.probes = {"connected", "degree", "expansion", "stretch"};
    probed_spec.sample_every = 5;
    auto base = ScenarioRunner(base_spec).run();
    auto probed = ScenarioRunner(probed_spec).run();
    EXPECT_EQ(base.trace_hash, probed.trace_hash);
    EXPECT_EQ(base.fingerprint, probed.fingerprint);
    EXPECT_GT(probed.samples.size(), base.samples.size());
}

TEST(ScenarioTrace, GraphFingerprintSeesClaimsAndStructure) {
    graph::Graph a;
    a.add_node();
    a.add_node();
    a.add_black_edge(0, 1);
    graph::Graph b;
    b.add_node();
    b.add_node();
    b.add_black_edge(0, 1);
    EXPECT_EQ(scenario::graph_fingerprint(a), scenario::graph_fingerprint(b));
    b.add_color_claim(0, 1, 4);
    EXPECT_NE(scenario::graph_fingerprint(a), scenario::graph_fingerprint(b));
}

namespace {

/// Read `path` with its first occurrence of `from` replaced by `to`; the
/// reader must reject it with a line-numbered message naming `key`.
void expect_corrupt_golden_rejected(const std::string& path, const std::string& from,
                                    const std::string& to, const std::string& key) {
    std::ifstream file(path);
    ASSERT_TRUE(file) << path;
    std::string text((std::istreambuf_iterator<char>(file)),
                     std::istreambuf_iterator<char>());
    auto at = text.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    text.replace(at, from.size(), to);
    std::istringstream in(text);
    try {
        scenario::read_trace(in);
        FAIL() << "accepted " << to;
    } catch (const std::runtime_error& e) {
        std::string what = e.what();
        EXPECT_EQ(what.rfind("trace line ", 0), 0u) << what;
        EXPECT_NE(what.find("'" + key + "'"), std::string::npos) << what;
    }
}

}  // namespace

TEST(ScenarioTrace, RejectsCorruptTraces) {
    std::stringstream empty;
    EXPECT_THROW(scenario::read_trace(empty), std::runtime_error);
    std::stringstream missing_end(
        R"({"type":"header","scenario":"x","seed":1,"spec_hash":"0x0"})"
        "\n");
    EXPECT_THROW(scenario::read_trace(missing_end), std::runtime_error);
    std::stringstream bad_count(
        R"({"type":"header","scenario":"x","seed":1,"spec_hash":"0x0"})"
        "\n"
        R"({"type":"end","events":3,"trace_hash":"0x0","fingerprint":"0x0"})"
        "\n");
    EXPECT_THROW(scenario::read_trace(bad_count), std::runtime_error);

    // Numbers are strict: trailing junk, junk inside the neighbor list, and
    // ids wider than graph::NodeId must not read (or truncate) silently.
    const std::string golden = std::string(XHEAL_REPO_DIR) + "/tests/data/golden_";
    expect_corrupt_golden_rejected(golden + "cycle.jsonl", "\"step\":1,", "\"step\":1zz,",
                                   "step");
    expect_corrupt_golden_rejected(golden + "cycle.jsonl", "\"node\":1}", "\"node\":1zz}",
                                   "node");
    expect_corrupt_golden_rejected(golden + "churn.jsonl", "\"neighbors\":[11,16,17]",
                                   "\"neighbors\":[11abc,16,17]", "neighbors");
    expect_corrupt_golden_rejected(golden + "cycle.jsonl", "\"node\":1}",
                                   "\"node\":18446744073709551617}", "node");
    expect_corrupt_golden_rejected(golden + "cycle.jsonl", "\"node\":1}",
                                   "\"node\":4294967296}", "node");
    expect_corrupt_golden_rejected(golden + "cycle.jsonl", "\"phase\":0,",
                                   "\"phase\":4294967296,", "phase");
    expect_corrupt_golden_rejected(golden + "cycle.jsonl", "\"step\":1,", "\"step\":-1,",
                                   "step");
    // 2^32 - 1 is the stepper's "assign it" marker: read from a file it
    // would replay as whatever id or live count the run produced.
    expect_corrupt_golden_rejected(golden + "churn.jsonl", "\"node\":24,",
                                   "\"node\":4294967295,", "node");
    expect_corrupt_golden_rejected(std::string(XHEAL_REPO_DIR) +
                                       "/tests/data/corpus/faulty_compact.jsonl",
                                   "\"live\":22", "\"live\":4294967295", "live");
}

TEST(ScenarioRunnerV2, InsertBurstLeadsEveryStep) {
    // insert_burst forced arrivals are extra events on top of the regular
    // burst budget, recorded in the trace like any insert.
    auto spec = ScenarioSpec::parse(R"(
name flash
seed 3
topology cycle n=12
healer no-heal
phase flash steps=10 insert_burst=2 delete_fraction=0 inserter=random-attach k=2
)");
    auto result = ScenarioRunner(spec).run();
    EXPECT_EQ(result.steps_done, 10u);
    // 2 forced + 1 regular insert (delete_fraction=0) per step.
    EXPECT_EQ(result.events.size(), 30u);
    EXPECT_EQ(result.phases[0].insertions, 30u);
    for (const auto& e : result.events)
        EXPECT_EQ(e.kind, scenario::TraceEvent::Kind::insert);
}

TEST(ScenarioRunnerV2, PerPhaseSeedMakesPhaseStreamsPrefixIndependent) {
    // Two schedules whose first phases consume DIFFERENT amounts of master
    // randomness (k=2 vs k=3 neighbor picks) but produce the same
    // population. With seed= on the second phase, its event subsequence is
    // identical across both runs; without it, the prefix perturbation
    // leaks in.
    auto make = [](const std::string& k, const std::string& seed_key) {
        return ScenarioSpec::parse(
            "name reseed\nseed 5\ntopology cycle n=20\nhealer no-heal\n"
            "phase grow steps=6 delete_fraction=0 inserter=random-attach k=" + k + "\n"
            "phase drain steps=8" + seed_key +
            " delete_fraction=1 deleter=random min_nodes=4\n");
    };
    auto drain_events = [](const scenario::RunResult& result) {
        std::vector<scenario::TraceEvent> out;
        for (const auto& e : result.events)
            if (e.phase == 1) out.push_back(e);
        return out;
    };

    auto seeded_a = ScenarioRunner(make("2", " seed=77")).run();
    auto seeded_b = ScenarioRunner(make("3", " seed=77")).run();
    EXPECT_EQ(drain_events(seeded_a), drain_events(seeded_b));
    EXPECT_NE(seeded_a.trace_hash, seeded_b.trace_hash);  // phase 1 differs

    auto unseeded_a = ScenarioRunner(make("2", "")).run();
    auto unseeded_b = ScenarioRunner(make("3", "")).run();
    EXPECT_NE(drain_events(unseeded_a), drain_events(unseeded_b));
}

TEST(ScenarioRunnerV2, RampIsDeterministicAndReplayable) {
    auto spec = ScenarioSpec::parse(R"(
name ramp-replay
seed 17
topology random-regular n=24 d=4
healer xheal d=2
phase ramp steps=30 delete_fraction=0.2..0.8 deleter=random:0.5,max-degree:0.5 inserter=random-attach k=2 min_nodes=8
)");
    auto first = ScenarioRunner(spec).run();
    auto second = ScenarioRunner(spec).run();
    EXPECT_EQ(first.trace_hash, second.trace_hash);
    EXPECT_EQ(first.fingerprint, second.fingerprint);

    auto replayed = ScenarioRunner(spec).replay(first.to_trace(spec));
    EXPECT_EQ(replayed.trace_hash, first.trace_hash);
    EXPECT_EQ(replayed.fingerprint, first.fingerprint);
}

TEST(ScenarioRunner, HugeCompactFactorNeverWrapsIntoCompaction) {
    // The trigger divides the issued id space by the live population
    // instead of multiplying K by it, so K = 2^63 cannot wrap to a small
    // threshold and fire compaction nearly every step.
    auto spec_with = [](const std::string& factor) {
        return ScenarioSpec::parse(
            "name compact-factor\nseed 1\ntopology cycle n=64\nhealer xheal\n"
            "phase churn steps=40 delete_fraction=0.5 compact=" + factor + "\n");
    };
    for (const char* factor : {"3", "1000000", "9223372036854775808", "18446744073709551615"}) {
        auto result = ScenarioRunner(spec_with(factor)).run();
        EXPECT_EQ(result.compactions, 0u) << factor;
        EXPECT_EQ(std::count_if(result.events.begin(), result.events.end(),
                                [](const scenario::TraceEvent& e) {
                                    return e.kind == scenario::TraceEvent::Kind::compact;
                                }),
                  0)
            << factor;
    }
}

TEST(BundledScenarios, EveryFastSpecPassesAndStaysConnectedAtEverySample) {
    // Full-size specs that run only on the nightly CI schedule: dex_scale is
    // n = 1e5, batch_knee and long_haul step for seconds to minutes each in
    // Release, far longer under the sanitizers.
    const std::vector<std::string> nightly = {"dex_scale.scn", "packs/batch_knee/",
                                              "packs/long_haul/"};
    const std::filesystem::path root = std::filesystem::path(XHEAL_REPO_DIR) / "scenarios";
    std::vector<std::string> files;
    for (const auto& entry : std::filesystem::recursive_directory_iterator(root)) {
        if (!entry.is_regular_file() || entry.path().extension() != ".scn") continue;
        const std::string rel = entry.path().lexically_relative(root).generic_string();
        if (std::none_of(nightly.begin(), nightly.end(),
                         [&](const std::string& skip) { return rel.starts_with(skip); }))
            files.push_back(rel);
    }
    std::sort(files.begin(), files.end());
    EXPECT_GE(files.size(), 22u);  // 5 top-level + 17 pack specs
    std::size_t expect_connected = 0;
    for (const std::string& rel : files) {
        SCOPED_TRACE(rel);
        const ScenarioSpec spec = ScenarioSpec::parse_file((root / rel).string());
        const scenario::RunResult result = ScenarioRunner(spec).run();
        EXPECT_TRUE(result.passed())
            << (result.failures.empty() ? std::string() : result.failures.front());
        // `expect connected` judges the final sample; the overlay must not
        // partition at any cadence sample on the way there either.
        if (std::none_of(spec.expectations.begin(), spec.expectations.end(),
                         [](const scenario::Expectation& e) {
                             return e.kind == scenario::Expectation::Kind::connected;
                         }))
            continue;
        ++expect_connected;
        for (const scenario::MetricSample& sample : result.samples)
            EXPECT_EQ(sample.components, 1u) << "step " << sample.step;
    }
    EXPECT_GE(expect_connected, 21u);
}
