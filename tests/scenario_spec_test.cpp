// Spec-layer tests: grammar parsing, canonical round-trip, typed parameter
// access, and registry factory coverage (every listed name constructs).
#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>

#include "scenario/registry.hpp"
#include "scenario/spec.hpp"

using namespace xheal;
using scenario::ComponentSpec;
using scenario::Expectation;
using scenario::ScenarioSpec;

namespace {

const char* kSample = R"(# phased churn against xheal
name phased-churn
seed 42
topology random-regular n=64 d=4
healer xheal d=2
probes degree expansion
sample_every 20
phase warmup steps=60 delete_fraction=0.3 deleter=random inserter=random-attach k=3 min_nodes=8
phase assault steps=30 delete_fraction=1 deleter=max-degree burst=2
expect connected
expect max_degree_ratio <= 12
)";

}  // namespace

TEST(ScenarioSpec, ParsesTheDocumentedGrammar) {
    auto spec = ScenarioSpec::parse(kSample);
    EXPECT_EQ(spec.name, "phased-churn");
    EXPECT_EQ(spec.seed, 42u);
    EXPECT_EQ(spec.topology.kind, "random-regular");
    EXPECT_EQ(spec.topology.get_u64("n", 0), 64u);
    EXPECT_EQ(spec.healer.kind, "xheal");
    EXPECT_EQ(spec.healer.get_u64("d", 0), 2u);
    EXPECT_EQ(spec.probes, (std::vector<std::string>{"degree", "expansion"}));
    EXPECT_EQ(spec.sample_every, 20u);

    ASSERT_EQ(spec.phases.size(), 2u);
    EXPECT_EQ(spec.phases[0].name, "warmup");
    EXPECT_EQ(spec.phases[0].steps, 60u);
    EXPECT_DOUBLE_EQ(spec.phases[0].delete_fraction, 0.3);
    EXPECT_EQ(spec.phases[0].min_nodes, 8u);
    EXPECT_EQ(spec.phases[0].deleter.kind, "random");
    EXPECT_EQ(spec.phases[0].inserter.kind, "random-attach");
    EXPECT_EQ(spec.phases[0].inserter.get_u64("k", 0), 3u);  // bare-k sugar
    EXPECT_EQ(spec.phases[1].deleter.kind, "max-degree");
    EXPECT_EQ(spec.phases[1].burst, 2u);
    EXPECT_EQ(spec.total_steps(), 90u);

    ASSERT_EQ(spec.expectations.size(), 2u);
    EXPECT_EQ(spec.expectations[0].kind, Expectation::Kind::connected);
    EXPECT_EQ(spec.expectations[1].kind, Expectation::Kind::max_degree_ratio_le);
    EXPECT_DOUBLE_EQ(spec.expectations[1].value, 12.0);
}

TEST(ScenarioSpec, CanonicalTextRoundTrips) {
    auto spec = ScenarioSpec::parse(kSample);
    std::string canonical = spec.to_text();
    auto reparsed = ScenarioSpec::parse(canonical);
    EXPECT_EQ(reparsed.to_text(), canonical);
    EXPECT_EQ(reparsed.content_hash(), spec.content_hash());
}

TEST(ScenarioSpec, RejectsMalformedInput) {
    EXPECT_THROW(ScenarioSpec::parse("bogus directive\n"), std::runtime_error);
    EXPECT_THROW(ScenarioSpec::parse("topology star\nhealer xheal\n"),
                 std::runtime_error);  // no phase
    EXPECT_THROW(ScenarioSpec::parse("healer xheal\nphase p steps=1\n"),
                 std::runtime_error);  // no topology
    EXPECT_THROW(
        ScenarioSpec::parse(
            "topology star\nhealer xheal\nphase p steps=1\nexpect expansion <= 1\n"),
        std::runtime_error);  // expansion only supports >=
    EXPECT_THROW(ScenarioSpec::parse("topology star\nhealer xheal\nphase p steps=1 "
                                     "frobnicate=2\n"),
                 std::runtime_error);  // unknown phase key
    EXPECT_THROW(ScenarioSpec::parse("seed twelve\ntopology star\nhealer xheal\n"
                                     "phase p steps=1\n"),
                 std::runtime_error);  // bad integer
}

/// Assert parse() rejects `body` and that the error message carries a line
/// number plus the offending fragment, so CLI users can find the typo.
void expect_rejects(const std::string& body, const std::string& fragment) {
    try {
        ScenarioSpec::parse(body);
        FAIL() << "accepted malformed spec:\n" << body;
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("line"), std::string::npos) << e.what();
        EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos) << e.what();
    }
}

TEST(ScenarioSpec, RejectionMessagesNameLineAndFragment) {
    const std::string prologue = "topology star\nhealer xheal\n";
    // Malformed key=value tokens in every position that takes them.
    expect_rejects(prologue + "phase p steps=1 keyonly\n", "keyonly");
    expect_rejects(prologue + "phase p steps=1 =value\n", "=value");
    expect_rejects("topology star leaves\nhealer xheal\nphase p steps=1\n", "leaves");
    expect_rejects(prologue + "phase p\n", "steps");  // missing steps=N
    // Out-of-range / unparsable phase parameters.
    expect_rejects(prologue + "phase p steps=0\n", "steps");
    expect_rejects(prologue + "phase p steps=1 burst=0\n", "burst");
    expect_rejects(prologue + "phase p steps=many\n", "many");
    expect_rejects(prologue + "phase p steps=1 delete_fraction=half\n", "half");
    expect_rejects(prologue + "phase p steps=1 min_nodes=-3\n", "-3");
    // Directive arity.
    expect_rejects("name a b\n" + prologue + "phase p steps=1\n", "name");
    expect_rejects(prologue + "sample_every\nphase p steps=1\n", "sample_every");
    expect_rejects(prologue + "stretch_samples 3 4\nphase p steps=1\n",
                   "stretch_samples");
    // Expectation grammar.
    expect_rejects(prologue + "phase p steps=1\nexpect\n", "expect");
    expect_rejects(prologue + "phase p steps=1\nexpect connected 1\n", "connected");
    expect_rejects(prologue + "phase p steps=1\nexpect lambda2 >= soon\n", "soon");
    expect_rejects(prologue + "phase p steps=1\nexpect entropy >= 1\n", "entropy");
    // Integer overflow and a leading sign are bad integers, not wraps.
    expect_rejects(prologue + "phase p steps=18446744073709551616\n", "out of range");
    expect_rejects(prologue + "phase p steps=+3\n", "+3");
    // Per-key ceilings: sizes past them are rejected at parse time, the
    // ceiling itself is accepted.
    expect_rejects(prologue + "phase p steps=10000001\n", "steps=10000001 exceeds the ceiling");
    EXPECT_NO_THROW(ScenarioSpec::parse(prologue + "phase p steps=10000000\n"));
    expect_rejects(prologue + "phase p steps=1 insert_burst=100001\n", "insert_burst=");
    expect_rejects(prologue + "phase p steps=1 batch=100001\n", "batch=");
    expect_rejects(prologue + "phase p steps=1 latency=10001\n", "latency=");
    expect_rejects("topology complete n=5000\nhealer xheal\nphase p steps=1\n",
                   "complete.n=5000");
    EXPECT_NO_THROW(ScenarioSpec::parse("topology path n=5000\nhealer xheal\nphase p steps=1\n"));
    expect_rejects("topology star\nhealer xheal d=65\nphase p steps=1\n", "xheal.d=65");
    expect_rejects("topology star leaves=x\nhealer xheal\nphase p steps=1\n", "bad integer");
    // The removed shard engine's knobs (DESIGN.md decision 13) are no
    // longer grammar.
    expect_rejects(prologue + "shards 4\nphase p steps=1\n", "unknown directive 'shards'");
    expect_rejects(prologue + "phase p steps=1 shards=2\n", "unknown phase key 'shards'");
}

TEST(ScenarioSpecV2, ParsesTheGrammarV2PhaseKeys) {
    auto spec = ScenarioSpec::parse(
        "topology random-regular n=32 d=4\nhealer xheal\n"
        "phase ramp steps=50 seed=9 insert_burst=2 delete_fraction=0.1..0.9 "
        "deleter=random:0.7,max-degree:0.3 min_nodes=6\n"
        "phase tail steps=10 delete_fraction=0.5\n");
    ASSERT_EQ(spec.phases.size(), 2u);
    const auto& ramp = spec.phases[0];
    ASSERT_TRUE(ramp.seed.has_value());
    EXPECT_EQ(*ramp.seed, 9u);
    EXPECT_EQ(ramp.insert_burst, 2u);
    EXPECT_DOUBLE_EQ(ramp.delete_fraction, 0.1);
    ASSERT_TRUE(ramp.delete_fraction_end.has_value());
    EXPECT_DOUBLE_EQ(*ramp.delete_fraction_end, 0.9);
    ASSERT_EQ(ramp.deleter_mix.size(), 2u);
    EXPECT_EQ(ramp.deleter_mix[0].component.kind, "random");
    EXPECT_DOUBLE_EQ(ramp.deleter_mix[0].weight, 0.7);
    EXPECT_EQ(ramp.deleter_mix[1].component.kind, "max-degree");
    EXPECT_DOUBLE_EQ(ramp.deleter_mix[1].weight, 0.3);
    // The second phase stays plain: no seed, no ramp, no mixture.
    EXPECT_FALSE(spec.phases[1].seed.has_value());
    EXPECT_FALSE(spec.phases[1].delete_fraction_end.has_value());
    EXPECT_TRUE(spec.phases[1].deleter_mix.empty());

    // The ramp hits both endpoints and interpolates linearly between them.
    EXPECT_DOUBLE_EQ(ramp.delete_fraction_at(0), 0.1);
    EXPECT_DOUBLE_EQ(ramp.delete_fraction_at(49), 0.9);
    EXPECT_NEAR(ramp.delete_fraction_at(24), 0.1 + 0.8 * 24.0 / 49.0, 1e-12);
    EXPECT_DOUBLE_EQ(spec.phases[1].delete_fraction_at(5), 0.5);

    // Canonical round-trip covers every v2 key.
    std::string canonical = spec.to_text();
    auto reparsed = ScenarioSpec::parse(canonical);
    EXPECT_EQ(reparsed.to_text(), canonical);
    EXPECT_EQ(reparsed.content_hash(), spec.content_hash());
    EXPECT_NE(canonical.find("seed=9"), std::string::npos);
    EXPECT_NE(canonical.find("insert_burst=2"), std::string::npos);
    EXPECT_NE(canonical.find("delete_fraction=0.1..0.9"), std::string::npos);
    EXPECT_NE(canonical.find("deleter=random:0.7,max-degree:0.3"), std::string::npos);
}

TEST(ScenarioSpecV2, LastDeleterKeyWinsInBothDirections) {
    const std::string prologue = "topology star\nhealer xheal\n";
    // Mixture overrides an earlier plain kind…
    auto a = ScenarioSpec::parse(
        prologue + "phase p steps=1 deleter=cut-point deleter=random:0.5,max-degree:0.5\n");
    EXPECT_EQ(a.phases[0].deleter_mix.size(), 2u);
    // …and a plain kind overrides an earlier mixture.
    auto b = ScenarioSpec::parse(
        prologue + "phase p steps=1 deleter=random:0.5,max-degree:0.5 deleter=cut-point\n");
    EXPECT_TRUE(b.phases[0].deleter_mix.empty());
    EXPECT_EQ(b.phases[0].deleter.kind, "cut-point");
    EXPECT_NE(b.to_text().find("deleter=cut-point"), std::string::npos);
}

TEST(ScenarioSpecV2, LossyNetworkKeysParseAndRoundTrip) {
    const std::string prologue = "topology star\nhealer xheal-dist\n";
    auto spec = ScenarioSpec::parse(
        prologue + "phase storm steps=30 delete_fraction=1 drop=0.1 latency=2\n"
                   "phase calm steps=10 delete_fraction=0.2\n");
    ASSERT_EQ(spec.phases.size(), 2u);
    ASSERT_TRUE(spec.phases[0].drop.has_value());
    EXPECT_DOUBLE_EQ(*spec.phases[0].drop, 0.1);
    ASSERT_TRUE(spec.phases[0].latency.has_value());
    EXPECT_EQ(*spec.phases[0].latency, 2u);
    // Unset keys stay unset: the healer falls back to its base fault model.
    EXPECT_FALSE(spec.phases[1].drop.has_value());
    EXPECT_FALSE(spec.phases[1].latency.has_value());

    std::string canonical = spec.to_text();
    auto reparsed = ScenarioSpec::parse(canonical);
    EXPECT_EQ(reparsed.to_text(), canonical);
    EXPECT_EQ(reparsed.content_hash(), spec.content_hash());
    EXPECT_NE(canonical.find("drop=0.1"), std::string::npos);
    EXPECT_NE(canonical.find("latency=2"), std::string::npos);

    // Probabilities outside [0, 1] and non-integer latencies are parse
    // errors, not silent clamps.
    expect_rejects(prologue + "phase p steps=1 drop=1.5\n", "[0, 1]");
    expect_rejects(prologue + "phase p steps=1 drop=-0.1\n", "[0, 1]");
    expect_rejects(prologue + "phase p steps=1 latency=2.5\n", "latency");
}

TEST(ScenarioSpecV2, RejectsMalformedRampsAndMixtures) {
    const std::string prologue = "topology star\nhealer xheal\n";
    // Ramps: reversed, negative, out-of-range, missing bounds, junk bounds.
    expect_rejects(prologue + "phase p steps=1 delete_fraction=0.9..0.1\n", "reversed");
    expect_rejects(prologue + "phase p steps=1 delete_fraction=-0.1..0.5\n", ">= 0");
    expect_rejects(prologue + "phase p steps=1 delete_fraction=0.5..1.5\n", "<= 1");
    expect_rejects(prologue + "phase p steps=1 delete_fraction=0.1..\n", "bounds");
    expect_rejects(prologue + "phase p steps=1 delete_fraction=..0.9\n", "bounds");
    expect_rejects(prologue + "phase p steps=1 delete_fraction=a..b\n", "bad number");
    // Mixtures: negative weight, non-normalizable (all-zero) weights,
    // missing weight, missing kind, dotted params against a mixture.
    expect_rejects(prologue + "phase p steps=1 deleter=random:-1,max-degree:2\n",
                   "negative");
    expect_rejects(prologue + "phase p steps=1 deleter=random:0,max-degree:0\n",
                   "normalizable");
    expect_rejects(prologue + "phase p steps=1 deleter=random:0.5,max-degree\n",
                   "kind:weight");
    expect_rejects(prologue + "phase p steps=1 deleter=:0.5\n", "kind:weight");
    expect_rejects(prologue + "phase p steps=1 deleter=random:\n", "kind:weight");
    expect_rejects(prologue + "phase p steps=1 deleter=random:0.5,max-degree:0.5 "
                              "deleter.k=2\n",
                   "deleter.*");
    // Phase seed must be a u64.
    expect_rejects(prologue + "phase p steps=1 seed=-4\n", "-4");
    expect_rejects(prologue + "phase p steps=1 seed=lots\n", "lots");
}

TEST(ScenarioRegistryV2, PhaseDeleterFactoryBuildsSinglesAndMixtures) {
    scenario::PhaseSpec single;
    single.deleter.kind = "max-degree";
    auto s = scenario::make_phase_deleter(single, nullptr);
    EXPECT_EQ(s->name(), "max-degree");

    scenario::PhaseSpec mixed;
    mixed.deleter_mix.push_back({ComponentSpec{"random", {}}, 0.7});
    mixed.deleter_mix.push_back({ComponentSpec{"max-degree", {}}, 0.3});
    auto m = scenario::make_phase_deleter(mixed, nullptr);
    EXPECT_EQ(m->name(), "composite");

    // Member kinds go through make_deleter: unknown kinds and capability
    // requirements (bridge-hunter without a registry) throw identically.
    scenario::PhaseSpec bogus;
    bogus.deleter_mix.push_back({ComponentSpec{"chaos", {}}, 1.0});
    EXPECT_THROW(scenario::make_phase_deleter(bogus, nullptr), std::runtime_error);
    scenario::PhaseSpec hunter;
    hunter.deleter_mix.push_back({ComponentSpec{"bridge-hunter", {}}, 1.0});
    EXPECT_THROW(scenario::make_phase_deleter(hunter, nullptr), std::runtime_error);
}

TEST(ScenarioRegistry, UnknownFactoryKindsAreRejectedByEveryFactory) {
    util::Rng rng(4);
    EXPECT_THROW(scenario::make_topology(ComponentSpec{"tesseract", {}}, rng),
                 std::runtime_error);
    EXPECT_THROW(scenario::make_healer(ComponentSpec{"bandaid", {}}, 1),
                 std::runtime_error);
    EXPECT_THROW(scenario::make_deleter(ComponentSpec{"chaos", {}}, nullptr),
                 std::runtime_error);
    EXPECT_THROW(scenario::make_inserter(ComponentSpec{"wormhole", {}}),
                 std::runtime_error);
    // The faulty wrapper refuses stateful inner healers and itself.
    EXPECT_THROW(scenario::make_healer(ComponentSpec{"faulty", {{"inner", "xheal"}}}, 1),
                 std::runtime_error);
    EXPECT_THROW(
        scenario::make_healer(ComponentSpec{"faulty", {{"inner", "faulty"}}}, 1),
        std::runtime_error);
}

TEST(ScenarioSpec, EveryBundledScenarioParsesAndRoundTrips) {
    // Everything under scenarios/ — the top-level specs plus the pack tree
    // (scenarios/packs/*/*.scn, the batch-runner corpus).
    std::vector<std::string> files;
    for (const auto& entry : std::filesystem::recursive_directory_iterator(
             std::string(XHEAL_REPO_DIR) + "/scenarios"))
        if (entry.is_regular_file() && entry.path().extension() == ".scn")
            files.push_back(entry.path().string());
    EXPECT_GE(files.size(), 16u);  // 6 top-level + 10 pack specs at minimum
    for (const std::string& path : files) {
        SCOPED_TRACE(path);
        auto spec = ScenarioSpec::parse_file(path);
        EXPECT_FALSE(spec.phases.empty());
        std::string canonical = spec.to_text();
        auto reparsed = ScenarioSpec::parse(canonical);
        EXPECT_EQ(reparsed.to_text(), canonical);
        EXPECT_EQ(reparsed.content_hash(), spec.content_hash());
    }
}

TEST(ScenarioSpec, TypedParamAccessors) {
    ComponentSpec c{"x", {{"n", "7"}, {"p", "0.25"}, {"flag", "true"}}};
    EXPECT_EQ(c.get_u64("n", 0), 7u);
    EXPECT_DOUBLE_EQ(c.get_double("p", 0.0), 0.25);
    EXPECT_TRUE(c.get_bool("flag", false));
    EXPECT_EQ(c.get_u64("absent", 9u), 9u);
    ComponentSpec bad{"x", {{"n", "zap"}}};
    EXPECT_THROW(bad.get_u64("n", 0), std::runtime_error);
}

TEST(ScenarioRegistry, EveryListedTopologyConstructs) {
    util::Rng rng(3);
    for (const auto& kind : scenario::topology_names()) {
        ComponentSpec spec{kind, {}};
        auto g = scenario::make_topology(spec, rng);
        EXPECT_GT(g.node_count(), 0u) << kind;
    }
    EXPECT_THROW(scenario::make_topology(ComponentSpec{"moebius", {}}, rng),
                 std::runtime_error);
}

TEST(ScenarioRegistry, EveryListedHealerConstructs) {
    for (const auto& kind : scenario::healer_names()) {
        auto handle = scenario::make_healer(ComponentSpec{kind, {}}, 5);
        ASSERT_NE(handle.healer, nullptr) << kind;
        EXPECT_GE(handle.kappa, 1u);
        bool xheal_family = kind == "xheal" || kind == "xheal-dist";
        EXPECT_EQ(handle.registry != nullptr, xheal_family) << kind;
    }
    EXPECT_THROW(scenario::make_healer(ComponentSpec{"prayer", {}}, 5),
                 std::runtime_error);
}

TEST(ScenarioRegistry, EveryListedStrategyConstructs) {
    auto xheal = scenario::make_healer(ComponentSpec{"xheal", {}}, 5);
    for (const auto& kind : scenario::deleter_names()) {
        auto deleter = scenario::make_deleter(ComponentSpec{kind, {}}, xheal.registry);
        ASSERT_NE(deleter, nullptr) << kind;
        EXPECT_EQ(deleter->name(), kind);
    }
    // bridge-hunter needs a cloud registry.
    EXPECT_THROW(scenario::make_deleter(ComponentSpec{"bridge-hunter", {}}, nullptr),
                 std::runtime_error);
    for (const auto& kind : scenario::inserter_names()) {
        auto inserter = scenario::make_inserter(ComponentSpec{kind, {{"k", "2"}}});
        ASSERT_NE(inserter, nullptr) << kind;
        EXPECT_EQ(inserter->name(), kind);
    }
}
