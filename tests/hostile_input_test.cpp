// Hostile-input mutator: fixed-seed byte- and token-level mutants of every
// bundled spec (scenarios/**/*.scn) and every checked-in test input
// (tests/data/**/*.scn and *.jsonl), fed to the readers the CLI feeds them
// to. A spec mutant must either be rejected with a std::runtime_error by
// ScenarioSpec::parse or check_params (the CLI's exit 2) or parse to a spec
// whose canonical text round-trips. A trace mutant must either be rejected
// by read_trace with a std::runtime_error, or replay strictly against its
// pair's unmodified spec, or stop that replay with a std::exception; a
// replay that reproduces the recorded hashes must have replayed exactly
// the events the mutant holds. No mutant may crash, hang or escape as
// anything else.
//
// Mutated specs are never run: a legal spec may ask for 10M steps.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/trace.hpp"
#include "util/rng.hpp"

using namespace xheal;
using scenario::ScenarioSpec;

namespace {

const std::filesystem::path repo = XHEAL_REPO_DIR;

/// Mutants drawn per seed file: 8,000 spec mutants over the 40 `.scn`
/// seeds and 10,000 trace mutants over the 10 `.jsonl` seeds. Only about
/// one trace mutant in ten reads, so traces get more.
constexpr std::size_t spec_mutants = 200;
constexpr std::size_t trace_mutants = 1000;

/// What a number token is replaced with: zero, the largest u32 (the
/// in-memory "unassigned id" marker), one past the u32 and u64 ranges, a
/// sign the unsigned readers must refuse, the largest finite double's
/// neighbourhood and a non-finite real.
constexpr std::array<std::string_view, 7> hostile_numbers = {
    "0", "4294967295", "4294967296", "18446744073709551616", "-1", "1e308", "nan"};

std::string read_file(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Every regular file with extension `ext` under `dir`, sorted.
std::vector<std::filesystem::path> files_under(const std::filesystem::path& dir,
                                               const std::string& ext) {
    std::vector<std::filesystem::path> out;
    for (const auto& entry : std::filesystem::recursive_directory_iterator(dir))
        if (entry.is_regular_file() && entry.path().extension() == ext)
            out.push_back(entry.path());
    std::sort(out.begin(), out.end());
    return out;
}

using Span = std::pair<std::size_t, std::size_t>;  // [begin, end)

bool is_separator(char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '{' || c == '}' ||
           c == '[' || c == ']' || c == ',' || c == ':';
}

/// Tokens: maximal runs of non-separator bytes. A `.scn` token is a word or
/// a `key=value` pair; a JSONL token is a quoted key, string or number.
std::vector<Span> tokens(const std::string& text) {
    std::vector<Span> out;
    for (std::size_t i = 0; i < text.size();) {
        if (is_separator(text[i])) {
            ++i;
            continue;
        }
        std::size_t j = i;
        while (j < text.size() && !is_separator(text[j])) ++j;
        out.emplace_back(i, j);
        i = j;
    }
    return out;
}

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// Numbers: maximal runs of digits, '.', exponent and sign characters that
/// start with a digit not preceded by a letter, digit or '_' (so `b01` and
/// `drop005` stay names).
std::vector<Span> numbers(const std::string& text) {
    std::vector<Span> out;
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (!is_digit(text[i])) continue;
        if (i > 0) {
            auto prev = static_cast<unsigned char>(text[i - 1]);
            if (std::isalnum(prev) || prev == '_' || prev == '.') continue;
        }
        std::size_t j = i;
        while (j < text.size() && (is_digit(text[j]) || text[j] == '.' || text[j] == 'e' ||
                                   text[j] == 'E' || text[j] == '+' || text[j] == '-'))
            ++j;
        out.emplace_back(i, j);
        i = j;
    }
    return out;
}

/// One edit of `text`: flip a bit of, insert or delete a byte; duplicate,
/// drop or swap a token; or replace a number with a hostile one. An edit
/// with nothing to act on (no token, no number) leaves `text` alone.
void edit(std::string& text, util::Rng& rng) {
    switch (rng.index(7)) {
        case 0:  // flip one bit of a byte
            if (!text.empty())
                text[rng.index(text.size())] ^= static_cast<char>(1u << rng.index(8));
            return;
        case 1:  // insert a byte
            text.insert(text.begin() + static_cast<std::ptrdiff_t>(rng.index(text.size() + 1)),
                        static_cast<char>(rng.index(256)));
            return;
        case 2:  // delete a byte
            if (!text.empty()) text.erase(rng.index(text.size()), 1);
            return;
        case 3: {  // duplicate a token, behind the separator that precedes it
            auto toks = tokens(text);
            if (toks.empty()) return;
            auto [b, e] = toks[rng.index(toks.size())];
            char sep = b > 0 ? text[b - 1] : ' ';
            text.insert(e, sep + text.substr(b, e - b));
            return;
        }
        case 4: {  // drop a token
            auto toks = tokens(text);
            if (toks.empty()) return;
            auto [b, e] = toks[rng.index(toks.size())];
            text.erase(b, e - b);
            return;
        }
        case 5: {  // swap two tokens
            auto toks = tokens(text);
            if (toks.size() < 2) return;
            std::size_t x = rng.index(toks.size()), y = rng.index(toks.size());
            if (x == y) return;
            if (x > y) std::swap(x, y);
            auto [xb, xe] = toks[x];
            auto [yb, ye] = toks[y];
            std::string first = text.substr(xb, xe - xb), second = text.substr(yb, ye - yb);
            text.replace(yb, ye - yb, first);  // the later span first: xb..xe stays put
            text.replace(xb, xe - xb, second);
            return;
        }
        default: {  // replace a number
            auto nums = numbers(text);
            if (nums.empty()) return;
            auto [b, e] = nums[rng.index(nums.size())];
            text.replace(b, e - b, hostile_numbers[rng.index(hostile_numbers.size())]);
            return;
        }
    }
}

/// A mutant of `seed`: one to three stacked edits.
std::string mutate(const std::string& seed, util::Rng& rng) {
    std::string text = seed;
    for (std::size_t k = 1 + rng.index(3); k > 0; --k) edit(text, rng);
    return text;
}

/// The stream of mutants of one seed file depends on its path under the
/// repo only, so a failure names a reproducible mutant.
util::Rng rng_for(const std::filesystem::path& path) {
    return util::Rng(scenario::fnv1a64(path.lexically_relative(repo).generic_string()));
}

struct Tally {
    std::size_t rejected = 0;  ///< refused by the reader with a message
    std::size_t accepted = 0;  ///< read, then round-tripped or replayed
    std::size_t diverged = 0;  ///< read, then stopped by replay
};

/// A spec mutant is rejected by parse or check_params, or round-trips.
void check_spec_mutant(const std::string& text, Tally& tally) {
    ScenarioSpec spec;
    try {
        spec = ScenarioSpec::parse(text);
        scenario::check_params(spec);
    } catch (const std::runtime_error&) {
        ++tally.rejected;
        return;
    }
    const std::string canonical = spec.to_text();
    const ScenarioSpec reparsed = ScenarioSpec::parse(canonical);
    scenario::check_params(reparsed);
    EXPECT_EQ(reparsed.to_text(), canonical);
    EXPECT_EQ(reparsed.content_hash(), spec.content_hash());
    ++tally.accepted;
}

/// A trace mutant is rejected by read_trace, or replays against `spec`, or
/// stops that replay with a std::exception. A replay that matches the
/// recorded hashes replayed exactly the events the mutant holds.
void check_trace_mutant(const std::string& text, const ScenarioSpec& spec, Tally& tally) {
    scenario::Trace trace;
    try {
        std::istringstream in(text);
        trace = scenario::read_trace(in);
    } catch (const std::runtime_error&) {
        ++tally.rejected;
        return;
    }
    scenario::RunResult result;
    try {
        result = scenario::ScenarioRunner(spec).replay(trace);
    } catch (const std::exception&) {
        ++tally.diverged;
        return;
    }
    ++tally.accepted;
    // A replay whose hashes match the recorded ones is a PASS verdict: the
    // file must then hold exactly the stream that replayed.
    if (result.trace_hash != trace.trace_hash || result.fingerprint != trace.fingerprint)
        return;
    ASSERT_EQ(result.events.size(), trace.events.size());
    for (std::size_t i = 0; i < trace.events.size(); ++i)
        EXPECT_EQ(scenario::event_to_json(result.events[i]),
                  scenario::event_to_json(trace.events[i]))
            << "event " << i;
}

std::vector<std::filesystem::path> spec_seeds() {
    std::vector<std::filesystem::path> seeds = files_under(repo / "scenarios", ".scn");
    for (auto& path : files_under(repo / "tests" / "data", ".scn")) seeds.push_back(path);
    return seeds;
}

}  // namespace

TEST(HostileInput, SpecMutantsAreRejectedOrRoundTripCanonically) {
    const auto seeds = spec_seeds();
    ASSERT_GE(seeds.size(), 40u);  // 30 bundled, 5 golden and 5 corpus specs
    Tally tally;
    for (const auto& path : seeds) {
        const std::string seed = read_file(path);
        util::Rng rng = rng_for(path);
        for (std::size_t i = 0; i < spec_mutants; ++i) {
            const std::string mutant = mutate(seed, rng);
            SCOPED_TRACE(::testing::Message() << path.filename() << " mutant " << i << ":\n"
                                              << mutant);
            try {
                check_spec_mutant(mutant, tally);
            } catch (const std::exception& e) {
                ADD_FAILURE() << "escaped the spec reader: " << e.what();
            }
        }
    }
    // Both outcomes occur, so neither branch is vacuous.
    EXPECT_GT(tally.rejected, 0u);
    EXPECT_GT(tally.accepted, 0u);
}

TEST(HostileInput, TraceMutantsAreRejectedOrReplayAgainstTheirSpec) {
    const auto seeds = files_under(repo / "tests" / "data", ".jsonl");
    ASSERT_GE(seeds.size(), 10u);  // 5 golden traces + 5 corpus reproducers
    Tally tally;
    for (const auto& path : seeds) {
        const std::filesystem::path pair = std::filesystem::path(path).replace_extension(".scn");
        const ScenarioSpec spec = ScenarioSpec::parse_file(pair.string());
        const std::string seed = read_file(path);
        util::Rng rng = rng_for(path);
        for (std::size_t i = 0; i < trace_mutants; ++i) {
            const std::string mutant = mutate(seed, rng);
            SCOPED_TRACE(::testing::Message() << path.filename() << " mutant " << i << ":\n"
                                              << mutant);
            try {
                check_trace_mutant(mutant, spec, tally);
            } catch (const std::exception& e) {
                ADD_FAILURE() << "escaped the trace reader: " << e.what();
            }
        }
    }
    EXPECT_GT(tally.rejected, 0u);
    EXPECT_GT(tally.accepted, 0u);
    EXPECT_GT(tally.diverged, 0u);
}
