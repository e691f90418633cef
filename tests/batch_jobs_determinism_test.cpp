// Worker-pool determinism: trace_tools::run_batch must produce
// byte-identical deterministic fields at every worker count. Each pool
// thread constructs a fresh self-contained ScenarioRunner per job (own
// master rng, probe stream, healer, scratch), so nothing observable leaks
// across jobs — scheduling interleavings move timing fields only, and
// outcomes land positionally whatever order the workers claimed them in.
//
// This test (with parallel_probe_test) is the CI tsan job's workload:
// jobs=8 over a 5-spec pack forces real claim-counter contention and
// oversubscribed worker threads, each forking per-sample stretch helpers.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "scenario/spec.hpp"
#include "trace_tools/batch.hpp"

namespace xheal {
namespace {

std::vector<trace_tools::BatchJob> load_pack(const std::string& pack) {
    std::filesystem::path dir =
        std::filesystem::path(XHEAL_REPO_DIR) / "scenarios" / "packs" / pack;
    std::vector<std::string> files;
    for (const auto& entry : std::filesystem::directory_iterator(dir))
        if (entry.path().extension() == ".scn")
            files.push_back(entry.path().filename().string());
    std::sort(files.begin(), files.end());
    std::vector<trace_tools::BatchJob> jobs;
    for (const auto& file : files)
        jobs.push_back({file, scenario::ScenarioSpec::parse_file((dir / file).string())});
    return jobs;
}

void expect_identical(const std::vector<trace_tools::BatchOutcome>& a,
                      const std::vector<trace_tools::BatchOutcome>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("outcome " + std::to_string(i) + " (" + a[i].file + ")");
        EXPECT_EQ(a[i].file, b[i].file);
        EXPECT_EQ(a[i].scenario, b[i].scenario);
        EXPECT_EQ(a[i].healer, b[i].healer);
        EXPECT_EQ(a[i].pass, b[i].pass);
        EXPECT_EQ(a[i].steps, b[i].steps);
        EXPECT_EQ(a[i].events, b[i].events);
        EXPECT_EQ(a[i].trace_hash, b[i].trace_hash);
        EXPECT_EQ(a[i].fingerprint, b[i].fingerprint);
        EXPECT_EQ(a[i].samples, b[i].samples);
        EXPECT_EQ(a[i].probe_rebuilds, b[i].probe_rebuilds);
        EXPECT_EQ(a[i].probe_patched_events, b[i].probe_patched_events);
        EXPECT_EQ(a[i].messages, b[i].messages);
        EXPECT_EQ(a[i].failures, b[i].failures);
        EXPECT_EQ(a[i].errored, b[i].errored);
    }
}

// The tournament pack at jobs 1 / 2 / 8: jobs=1 runs the jobs one after
// another on the calling thread (not thread-free: samples that take the
// stretch probe fork a helper), jobs=8 oversubscribes a 5-job list so
// workers race the claim counter and at least some run concurrently.
TEST(BatchJobsDeterminism, TournamentPackAcrossWorkerCounts) {
    auto jobs = load_pack("tournament");
    ASSERT_GE(jobs.size(), 2u);
    auto serial = trace_tools::run_batch(jobs, 1);
    auto two = trace_tools::run_batch(jobs, 2);
    auto eight = trace_tools::run_batch(jobs, 8);
    expect_identical(serial, two);
    expect_identical(serial, eight);
    for (const auto& r : serial) EXPECT_FALSE(r.errored) << r.error;

    // Tournament property carried through the pool: one shared schedule,
    // one stream hash across all healers.
    for (const auto& r : eight)
        EXPECT_EQ(r.trace_hash, eight.front().trace_hash) << r.file;
}

// A spec naming an unknown healer becomes an errored outcome in its own
// slot — the pool must contain the throw, not tear down sibling jobs.
TEST(BatchJobsDeterminism, ErroredJobIsIsolated) {
    auto jobs = load_pack("tournament");
    ASSERT_GE(jobs.size(), 2u);
    jobs[1].spec.healer = scenario::ComponentSpec{"bandaid", {}};
    auto rows = trace_tools::run_batch(jobs, 4);
    ASSERT_EQ(rows.size(), jobs.size());
    EXPECT_TRUE(rows[1].errored);
    EXPECT_FALSE(rows[1].error.empty());
    for (std::size_t i = 0; i < rows.size(); ++i)
        if (i != 1) EXPECT_FALSE(rows[i].errored) << rows[i].error;
}

// Degenerate inputs: an empty job list and workers=0 (treated as 1).
TEST(BatchJobsDeterminism, DegenerateInputs) {
    EXPECT_TRUE(trace_tools::run_batch({}, 8).empty());
    auto jobs = load_pack("tournament");
    jobs.resize(1);
    auto rows = trace_tools::run_batch(jobs, 0);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_FALSE(rows[0].errored);
}

}  // namespace
}  // namespace xheal
