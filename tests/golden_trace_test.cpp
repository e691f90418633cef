// Golden-trace corpus: three small recorded runs checked in under
// tests/data/, with their stream hashes and final-graph fingerprints
// pinned *in this file*. Any drift in the trace format (writer or parser),
// the event-hash encoding, the graph fingerprint, the engine's rng
// consumption order, or a healer's repair decisions fails here loudly
// instead of silently invalidating every previously recorded replay.
//
// To regenerate after an *intentional* semantic change:
//   build/xheal_run run tests/data/golden_<name>.scn \
//       --trace tests/data/golden_<name>.jsonl
// and update the pinned constants below in the same commit, explaining the
// drift in the commit message. The repair totals are not in the trace; a
// failing run prints the new values.
//
// Portability caveat: util::Rng draws through std::uniform_*_distribution,
// whose engine consumption is implementation-defined, so the pinned values
// (like every recorded trace and CI verdict in this repo) are tied to
// libstdc++ — the toolchain CI pins. On another standard library this
// suite failing wholesale means stream divergence, not format drift.
#include <gtest/gtest.h>

#include <string>

#include "scenario/runner.hpp"
#include "scenario/trace.hpp"

using namespace xheal;

namespace {

/// A run's RepairReport totals, summed over its phases. Only the tables
/// print these counters; pinning them here catches a repair that still
/// lands on the same graph but does different work to get there.
struct RepairTotals {
    std::size_t edges_added;
    std::size_t edges_removed;
    std::size_t clouds_touched;
    std::size_t combines;
    std::size_t combine_members;
    std::size_t rebuilds;
};

struct Golden {
    const char* name;
    std::size_t events;
    std::uint64_t trace_hash;
    std::uint64_t fingerprint;
    RepairTotals repair;
};

// The pinned corpus (recorded by xheal_run; see file comment).
// golden_ramp / golden_mix pin the grammar-v2 keys: delete-fraction ramps,
// per-phase seeds, composite deleter mixtures, and insert bursts. Repair
// totals: {edges_added, edges_removed, clouds_touched, combines,
// combine_members, rebuilds}.
constexpr Golden kCorpus[] = {
    {"golden_star", 1, 0x7e0eafa1d69b9187ull, 0xc9cd300ffb766e10ull, {66, 0, 1, 0, 0, 0}},
    {"golden_churn", 35, 0x10cdc4288603deefull, 0x9e375cb2a64b9163ull, {229, 73, 72, 6, 56, 0}},
    {"golden_cycle", 25, 0x9e92da93379b885eull, 0x730290a3a8bfadf1ull, {17, 0, 0, 0, 0, 0}},
    {"golden_ramp", 35, 0x7535534326627f9aull, 0xc097a98ecf7dd1dfull, {139, 33, 51, 4, 30, 1}},
    {"golden_mix", 40, 0x3b2589071355fbecull, 0xdc512b12ee4818f2ull, {207, 54, 58, 3, 32, 0}},
};

std::string data_path(const std::string& file) {
    return std::string(XHEAL_REPO_DIR) + "/tests/data/" + file;
}

void expect_repair_totals(const std::vector<scenario::PhaseResult>& phases,
                          const RepairTotals& want, const char* path) {
    core::RepairReport sum;
    for (const auto& phase : phases) sum.accumulate(phase.totals);
    SCOPED_TRACE(path);
    EXPECT_EQ(sum.edges_added, want.edges_added);
    EXPECT_EQ(sum.edges_removed, want.edges_removed);
    EXPECT_EQ(sum.clouds_touched, want.clouds_touched);
    EXPECT_EQ(sum.combines, want.combines);
    EXPECT_EQ(sum.combine_members, want.combine_members);
    EXPECT_EQ(sum.rebuilds, want.rebuilds);
}

}  // namespace

class GoldenTrace : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenTrace, CheckedInTraceMatchesThePinnedHashes) {
    const Golden& golden = GetParam();
    auto trace = scenario::read_trace_file(data_path(golden.name) + ".jsonl");
    EXPECT_EQ(trace.events.size(), golden.events);
    EXPECT_EQ(trace.trace_hash, golden.trace_hash);
    EXPECT_EQ(trace.fingerprint, golden.fingerprint);

    // The header must still name the checked-in spec (format drift in
    // to_text()/content_hash() shows up here).
    auto spec = scenario::ScenarioSpec::parse_file(data_path(golden.name) + ".scn");
    EXPECT_EQ(trace.scenario, spec.name);
    EXPECT_EQ(trace.seed, spec.seed);
    EXPECT_EQ(trace.spec_hash, spec.content_hash());

    // Re-hashing the parsed events must reproduce the recorded stream hash
    // (parser/writer asymmetry would break replays).
    scenario::TraceHasher hasher;
    for (const auto& e : trace.events) hasher.add(e);
    EXPECT_EQ(hasher.value(), golden.trace_hash);
}

TEST_P(GoldenTrace, RecordedRunIsStillReproducedByRunAndReplay) {
    const Golden& golden = GetParam();
    auto spec = scenario::ScenarioSpec::parse_file(data_path(golden.name) + ".scn");
    auto trace = scenario::read_trace_file(data_path(golden.name) + ".jsonl");

    // A fresh run of the spec must regenerate the identical stream…
    auto rerun = scenario::ScenarioRunner(spec).run();
    EXPECT_EQ(rerun.trace_hash, golden.trace_hash);
    EXPECT_EQ(rerun.fingerprint, golden.fingerprint);
    expect_repair_totals(rerun.phases, golden.repair, "run");

    // …and the strict replay of the checked-in file must match end to end.
    auto replayed = scenario::ScenarioRunner(spec).replay(trace);
    EXPECT_EQ(replayed.trace_hash, golden.trace_hash);
    EXPECT_EQ(replayed.fingerprint, golden.fingerprint);
    expect_repair_totals(replayed.phases, golden.repair, "replay");
}

INSTANTIATE_TEST_SUITE_P(Corpus, GoldenTrace, ::testing::ValuesIn(kCorpus),
                         [](const ::testing::TestParamInfo<Golden>& info) {
                             std::string name = info.param.name;
                             for (char& c : name)
                                 if (c == '-') c = '_';
                             return name;
                         });
