// Fuzz-corpus replay: every (.scn, .jsonl) reproducer pair checked in
// under tests/data/corpus/ is replayed byte-for-byte on every ctest run —
// the same contract as the golden traces, but over *fuzz findings*: each
// pair was produced by `xheal_run fuzz` or `xheal_run shrink` catching an
// invariant violation (the `faulty` drop-repair healer, or a lambda2 floor
// under a batched xheal adversary) and ddmin-shrinking it. Replaying them
// forever pins the three properties every forensics artifact rests on:
//
//   1. shrunk reproducers are standalone — the spec alone rebuilds the
//      session the executor used (no hidden state);
//   2. canonical applied streams survive strict replay — hashes match
//      byte-for-byte, including through grammar-v2 specs (ramps, mixtures);
//   3. the trace format and engine semantics have not drifted — else every
//      reproducer ever shared in an issue or CI artifact is silently dead.
//
// To add a pair: run `xheal_run fuzz <spec> --out tests/data/corpus/<name>`
// (or `xheal_run shrink`), verify `xheal_run replay` passes, check both
// files in. Pairs whose violation is a healer exception cannot live here —
// their strict replay re-raises at the final event by design.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "scenario/runner.hpp"
#include "scenario/trace.hpp"

using namespace xheal;

namespace {

std::filesystem::path corpus_dir() {
    return std::filesystem::path(XHEAL_REPO_DIR) / "tests" / "data" / "corpus";
}

std::vector<std::string> corpus_names() {
    std::vector<std::string> names;
    for (const auto& entry : std::filesystem::directory_iterator(corpus_dir()))
        if (entry.is_regular_file() && entry.path().extension() == ".scn")
            names.push_back(entry.path().stem().string());
    std::sort(names.begin(), names.end());
    return names;
}

}  // namespace

// An empty corpus would make the replay suite below pass vacuously; the
// checked-in seed set (four faulty-healer finds, incl. one grammar-v2 spec
// and one compact-epoch stream, plus one batched xheal lambda2-floor find)
// is five pairs, and every .scn must have its .jsonl.
TEST(CorpusReplay, CorpusIsPresentAndPaired) {
    auto names = corpus_names();
    EXPECT_GE(names.size(), 5u);
    for (const auto& name : names) {
        SCOPED_TRACE(name);
        EXPECT_TRUE(std::filesystem::exists(corpus_dir() / (name + ".jsonl")))
            << name << ".scn has no recorded stream";
    }
}

// The id-compaction epoch (DESIGN.md decision 12) is part of the trace
// format; at least one reproducer must carry a compact event so format
// drift there cannot go unnoticed by the corpus.
TEST(CorpusReplay, CorpusCoversCompactEvents) {
    bool found = false;
    for (const auto& name : corpus_names()) {
        auto trace = scenario::read_trace_file(
            (corpus_dir() / (name + ".jsonl")).string());
        for (const auto& event : trace.events)
            if (event.kind == scenario::TraceEvent::Kind::compact) found = true;
    }
    EXPECT_TRUE(found) << "no corpus reproducer carries a compact event";
}

// Batched phases (`batch=k`, DESIGN.md decision 9) group staged deletions
// into flushes, and the executor and strict replay must agree on every
// flush point. At least one reproducer must therefore stage two or more
// deletions in one flush window: same schedule phase with batch > 1, same
// sample_every window, no insert or compact between them.
TEST(CorpusReplay, CorpusCoversBatchedSpecs) {
    bool found = false;
    for (const auto& name : corpus_names()) {
        auto spec =
            scenario::ScenarioSpec::parse_file((corpus_dir() / (name + ".scn")).string());
        auto trace = scenario::read_trace_file(
            (corpus_dir() / (name + ".jsonl")).string());
        // Schedule phase of a step; steps past the schedule are the last's.
        auto phase_of = [&](std::uint64_t step) {
            std::size_t p = 0;
            while (p + 1 < spec.phases.size() && step >= spec.phases[p].steps)
                step -= spec.phases[p++].steps;
            return p;
        };
        std::size_t staged = 0;
        std::pair<std::size_t, std::uint64_t> window{0, 0};
        for (const auto& event : trace.events) {
            std::size_t phase = phase_of(event.step);
            std::size_t batch = spec.phases[phase].batch;
            std::pair<std::size_t, std::uint64_t> here{
                phase, spec.sample_every == 0 ? 0 : event.step / spec.sample_every};
            if (event.kind != scenario::TraceEvent::Kind::remove || batch < 2) {
                staged = 0;
                continue;
            }
            if (here != window) staged = 0;
            window = here;
            if (++staged >= 2) found = true;
            if (staged == batch) staged = 0;  // batch full: flushed
        }
    }
    EXPECT_TRUE(found) << "no corpus reproducer stages two deletions in one flush";
}

class CorpusReplay : public ::testing::TestWithParam<std::string> {};

TEST_P(CorpusReplay, PairReplaysByteForByte) {
    const std::string name = GetParam();
    auto spec =
        scenario::ScenarioSpec::parse_file((corpus_dir() / (name + ".scn")).string());
    auto trace =
        scenario::read_trace_file((corpus_dir() / (name + ".jsonl")).string());

    // The recorded header still names the checked-in spec.
    EXPECT_EQ(trace.scenario, spec.name);
    EXPECT_EQ(trace.seed, spec.seed);
    EXPECT_EQ(trace.spec_hash, spec.content_hash())
        << name << ".scn edited since the stream was recorded";

    // Strict replay must reproduce the recorded stream hash and the final
    // healed-graph fingerprint exactly.
    auto result = scenario::ScenarioRunner(spec).replay(trace);
    EXPECT_EQ(result.trace_hash, trace.trace_hash);
    EXPECT_EQ(result.fingerprint, trace.fingerprint);
}

INSTANTIATE_TEST_SUITE_P(Corpus, CorpusReplay, ::testing::ValuesIn(corpus_names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                             std::string name = info.param;
                             for (char& c : name)
                                 if (!std::isalnum(static_cast<unsigned char>(c)))
                                     c = '_';
                             return name;
                         });
