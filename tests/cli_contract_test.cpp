// xheal_run CLI contract: scripting consumers (CI, shell pipelines) rely
// on the documented exit codes — 0 success, 1 verdict failure (expectation
// FAIL, replay mismatch, diff divergence, fuzz findings, shrink of a
// non-failing trace), 2 usage/file/parse errors. This test drives the real
// binary (XHEAL_RUN_BIN, injected by CMake) through every subcommand's
// success, missing-file and mismatch paths.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/runner.hpp"
#include "scenario/trace.hpp"

using namespace xheal;

namespace {

/// Run the binary with `args`, discarding output; returns the exit code
/// (or -1 when the process did not exit normally).
int run_cli(const std::string& args) {
    std::string command = std::string(XHEAL_RUN_BIN) + " " + args + " > /dev/null 2>&1";
    int status = std::system(command.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string write_file(const std::string& name, const std::string& content) {
    std::string path = testing::TempDir() + name;
    std::ofstream out(path);
    out << content;
    return path;
}

std::string read_file(const std::string& path) {
    std::ifstream in(path);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

struct CliOutput {
    int code = -1;  ///< exit code, -1 when the process did not exit normally
    std::string out;
    std::string err;
};

/// Run the binary with `args` and capture its exit code, stdout and stderr.
CliOutput capture_cli(const std::string& args) {
    std::string out = testing::TempDir() + "cli_stdout.txt";
    std::string err = testing::TempDir() + "cli_stderr.txt";
    std::string command =
        std::string(XHEAL_RUN_BIN) + " " + args + " > " + out + " 2> " + err;
    int status = std::system(command.c_str());
    return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, read_file(out), read_file(err)};
}

/// The sample table a run or replay prints, with the probe-ms timing column
/// (each line's last field) stripped.
std::vector<std::string> sample_table(const std::string& stdout_text) {
    std::vector<std::string> rows;
    std::istringstream lines(stdout_text);
    bool inside = false;
    for (std::string line; std::getline(lines, line);) {
        if (line.rfind("step ", 0) == 0) inside = true;
        if (line.rfind("probe snapshots:", 0) == 0) break;
        if (!inside) continue;
        std::istringstream fields(line);
        std::vector<std::string> row(std::istream_iterator<std::string>{fields},
                                     std::istream_iterator<std::string>{});
        if (!row.empty()) row.pop_back();
        std::string joined;
        for (const std::string& f : row) joined += f + " ";
        rows.push_back(joined);
    }
    return rows;
}

/// The key set of a report's first results row, in order.
std::vector<std::string> first_row_keys(const std::string& report) {
    std::size_t row = report.find("\n    {");
    std::string line = report.substr(row + 1, report.find('\n', row + 1) - row - 1);
    std::vector<std::string> keys;
    std::regex key("\"([a-z_0-9]+)\":");
    for (std::sregex_iterator it(line.begin(), line.end(), key), end; it != end; ++it)
        keys.push_back((*it)[1]);
    return keys;
}

const char* kPassingSpec = R"(name cli-pass
seed 5
topology cycle n=16
healer cycle
phase churn steps=12 delete_fraction=0.5 deleter=random inserter=random-attach k=2 min_nodes=6
expect connected
)";

const char* kFailingSpec = R"(name cli-fail
seed 5
topology cycle n=16
healer no-heal
phase drain steps=4 delete_fraction=1 deleter=random min_nodes=4
expect nodes >= 100
)";

/// Every probe on a sampled cadence with a batched phase, for comparing the
/// sample tables run and replay print.
const char* kSampledSpec = R"(name cli-sampled
seed 9
topology random-regular n=40 d=4
healer xheal d=2
probes connected degree expansion lambda2 stretch
sample_every 5
phase churn steps=30 delete_fraction=0.5 deleter=random inserter=random-attach k=3 min_nodes=8 batch=3
)";

/// A spec whose run breaks connectivity (fault-injected healer), for the
/// fuzz/shrink failure paths.
const char* kFaultySpec = R"(name cli-faulty
seed 11
topology cycle n=24
healer faulty inner=cycle drop_every=4
phase churn steps=40 delete_fraction=0.7 deleter=random inserter=random-attach k=2 min_nodes=4
)";

class CliContract : public ::testing::Test {
protected:
    void SetUp() override {
        pass_scn_ = write_file("cli_pass.scn", kPassingSpec);
        fail_scn_ = write_file("cli_fail.scn", kFailingSpec);
        faulty_scn_ = write_file("cli_faulty.scn", kFaultySpec);
        trace_path_ = testing::TempDir() + "cli_trace.jsonl";
        auto spec = scenario::ScenarioSpec::parse_file(pass_scn_);
        auto result = scenario::ScenarioRunner(spec).run();
        scenario::write_trace_file(trace_path_, result.to_trace(spec));
    }

    std::string pass_scn_, fail_scn_, faulty_scn_, trace_path_;
};

}  // namespace

TEST_F(CliContract, NoCommandAndUnknownCommandAreUsageErrors) {
    EXPECT_EQ(run_cli(""), 2);
    EXPECT_EQ(run_cli("frobnicate"), 2);
}

TEST_F(CliContract, RunExitCodes) {
    EXPECT_EQ(run_cli("run " + pass_scn_), 0);
    EXPECT_EQ(run_cli("run " + fail_scn_), 1);          // expectation FAIL
    EXPECT_EQ(run_cli("run /nonexistent.scn"), 2);      // missing file
    EXPECT_EQ(run_cli("run " + pass_scn_ + " --max-steps nope"), 2);

    // --json writes the one report schema (batch writes it too), which
    // has no stall column; a run report counts one job.
    std::string json = testing::TempDir() + "cli_run.json";
    EXPECT_EQ(run_cli("run " + pass_scn_ + " --json " + json), 0);
    std::string body = read_file(json);
    EXPECT_NE(body.find("\"schema\": \"xheal-report-v1\""), std::string::npos);
    EXPECT_NE(body.find("\"jobs\": 1,"), std::string::npos);
    EXPECT_EQ(body.find("probe_stall_seconds"), std::string::npos);

    // The removed shard engine's flag and grammar, and the removed probe
    // pipeline's --probe-mode, are rejected, not ignored (scenario_spec_test
    // pins the parser messages).
    CliOutput cli = capture_cli("run " + pass_scn_ + " --shards 4");
    EXPECT_EQ(cli.code, 2);
    EXPECT_NE(cli.err.find("unknown flag '--shards'"), std::string::npos) << cli.err;
    cli = capture_cli("run " + pass_scn_ + " --probe-mode async");
    EXPECT_EQ(cli.code, 2);
    EXPECT_NE(cli.err.find("unknown flag '--probe-mode'"), std::string::npos) << cli.err;
    EXPECT_EQ(run_cli("run " + write_file("cli_shards_top.scn",
                                          std::string("shards 4\n") + kPassingSpec)),
              2);
    std::string phase_shards = kPassingSpec;
    phase_shards.replace(phase_shards.find("steps=12"), 8, "steps=12 shards=2");
    EXPECT_EQ(run_cli("run " + write_file("cli_shards_phase.scn", phase_shards)), 2);
}

TEST_F(CliContract, HostileSizesExitTwoBeforeBuilding) {
    // Values that would size a 2^64-node topology or a 2^64-step / 4e9-draw
    // schedule are rejected by the parser's per-key ceilings, with the spec
    // line, instead of running (or allocating) until killed.
    struct Case {
        const char* from;
        const char* to;
        const char* fragment;
    };
    const Case cases[] = {
        {"topology cycle n=16", "topology cycle n=18446744073709551615", "spec line 3: cycle.n="},
        {"steps=12", "steps=18446744073709551615", "spec line 5: steps="},
        {"steps=12", "steps=12 burst=4000000000", "spec line 5: burst="},
    };
    for (const Case& c : cases) {
        std::string spec = kPassingSpec;
        spec.replace(spec.find(c.from), std::string(c.from).size(), c.to);
        auto start = std::chrono::steady_clock::now();
        CliOutput cli = capture_cli("run " + write_file("cli_hostile.scn", spec));
        double seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                             .count();
        EXPECT_EQ(cli.code, 2) << c.to;
        EXPECT_NE(cli.err.find(c.fragment), std::string::npos) << cli.err;
        EXPECT_NE(cli.err.find("exceeds the ceiling"), std::string::npos) << cli.err;
        EXPECT_LT(seconds, 5.0) << c.to;
    }
}

TEST_F(CliContract, PrintAndListExitCodes) {
    EXPECT_EQ(run_cli("print " + pass_scn_), 0);
    EXPECT_EQ(run_cli("print /nonexistent.scn"), 2);
    EXPECT_EQ(run_cli("list"), 0);
}

TEST_F(CliContract, ReplayExitCodes) {
    EXPECT_EQ(run_cli("replay " + pass_scn_ + " " + trace_path_), 0);
    EXPECT_EQ(run_cli("replay " + pass_scn_ + " /nonexistent.jsonl"), 2);

    // Tamper with the recorded trace hash: parse still succeeds, replay
    // must report the mismatch as a verdict failure.
    auto trace = scenario::read_trace_file(trace_path_);
    trace.trace_hash ^= 0x1;
    std::string tampered = testing::TempDir() + "cli_tampered.jsonl";
    scenario::write_trace_file(tampered, trace);
    EXPECT_EQ(run_cli("replay " + pass_scn_ + " " + tampered), 1);
}

TEST_F(CliContract, DiffExitCodes) {
    EXPECT_EQ(run_cli("diff " + trace_path_ + " " + trace_path_), 0);
    EXPECT_EQ(run_cli("diff " + trace_path_ + " /nonexistent.jsonl"), 2);
    EXPECT_EQ(run_cli("diff " + trace_path_), 2);  // usage

    // A perturbed re-run: drop one event and diff against the recording.
    auto trace = scenario::read_trace_file(trace_path_);
    trace.events.pop_back();
    std::string perturbed = testing::TempDir() + "cli_perturbed.jsonl";
    scenario::write_trace_file(perturbed, trace);
    EXPECT_EQ(run_cli("diff " + trace_path_ + " " + perturbed), 1);
}

TEST_F(CliContract, BatchExitCodes) {
    // A directory with one passing spec: success, and --json writes the
    // aggregated report. TempDir persists across runs — start clean so a
    // previous run's FAIL spec cannot leak into the passing directory.
    std::string dir = testing::TempDir() + "cli_batch_pass";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::ofstream(dir + "/only.scn") << kPassingSpec;
    std::string json = testing::TempDir() + "cli_batch.json";
    EXPECT_EQ(run_cli("batch " + dir + " --json " + json), 0);
    std::string body = read_file(json);
    EXPECT_NE(body.find("\"schema\": \"xheal-report-v1\""), std::string::npos);
    EXPECT_EQ(body.find("\"shards\""), std::string::npos);
    EXPECT_EQ(body.find("probe_stall_seconds"), std::string::npos);
    EXPECT_NE(body.find("\"jobs\": 1"), std::string::npos);
    EXPECT_NE(body.find("\"trace_hash\""), std::string::npos);
    // v3 billing columns are always present (0 for local healers).
    EXPECT_NE(body.find("\"messages\""), std::string::npos);
    EXPECT_NE(body.find("\"rounds\""), std::string::npos);
    EXPECT_NE(body.find("\"retries\""), std::string::npos);

    // --jobs routes through the worker pool; results (and exit code) match.
    EXPECT_EQ(run_cli("batch " + dir + " --jobs 4"), 0);

    // One FAIL spec in the directory: verdict failure.
    std::ofstream(dir + "/bad.scn") << kFailingSpec;
    EXPECT_EQ(run_cli("batch " + dir), 1);

    // The tournament override: forcing the no-heal healer onto a spec that
    // expects connectivity is a verdict failure, not an error.
    std::string solo = testing::TempDir() + "cli_batch_solo";
    std::filesystem::remove_all(solo);
    std::filesystem::create_directories(solo);
    std::ofstream(solo + "/only.scn") << kPassingSpec;
    EXPECT_EQ(run_cli("batch " + solo + " --healer no-heal"), 1);
    EXPECT_EQ(run_cli("batch " + solo + " --healer cycle"), 0);

    // Environment errors: missing directory, empty directory, bad healer
    // kind (factory throws -> file/parse error class), usage.
    EXPECT_EQ(run_cli("batch /nonexistent-dir"), 2);
    std::string empty = testing::TempDir() + "cli_batch_empty";
    std::filesystem::remove_all(empty);
    std::filesystem::create_directories(empty);
    EXPECT_EQ(run_cli("batch " + empty), 2);
    EXPECT_EQ(run_cli("batch " + solo + " --healer bandaid"), 2);
    EXPECT_EQ(run_cli("batch"), 2);
    CliOutput cli = capture_cli("batch " + solo + " --shards 4");
    EXPECT_EQ(cli.code, 2);
    EXPECT_NE(cli.err.find("unknown flag '--shards'"), std::string::npos) << cli.err;
    cli = capture_cli("batch " + solo + " --probe-mode inline");
    EXPECT_EQ(cli.code, 2);
    EXPECT_NE(cli.err.find("unknown flag '--probe-mode'"), std::string::npos) << cli.err;
}

TEST_F(CliContract, RunAndBatchWriteOneReportSchema) {
    std::string run_json = testing::TempDir() + "cli_schema_run.json";
    EXPECT_EQ(run_cli("run " + pass_scn_ + " --json " + run_json), 0);
    std::string dir = testing::TempDir() + "cli_schema_batch";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::ofstream(dir + "/only.scn") << kPassingSpec;
    std::string batch_json = testing::TempDir() + "cli_schema_batch.json";
    EXPECT_EQ(run_cli("batch " + dir + " --jobs 2 --json " + batch_json), 0);

    std::string run_report = read_file(run_json);
    std::string batch_report = read_file(batch_json);
    std::regex schema("\"schema\": \"[^\"]*\"");
    std::smatch run_schema, batch_schema;
    ASSERT_TRUE(std::regex_search(run_report, run_schema, schema)) << run_report;
    ASSERT_TRUE(std::regex_search(batch_report, batch_schema, schema)) << batch_report;
    EXPECT_EQ(run_schema.str(), batch_schema.str());

    std::vector<std::string> keys = first_row_keys(run_report);
    EXPECT_EQ(keys, first_row_keys(batch_report));
    // The keys the perf floors, the Theorem 5 ceilings and the CI
    // extractors read.
    for (const char* key : {"scenario", "steps_per_sec", "probe_ms_per_sample", "deletions",
                            "messages", "rounds", "retries", "trace_hash", "fingerprint",
                            "pass"})
        EXPECT_NE(std::find(keys.begin(), keys.end(), key), keys.end()) << key;
}

TEST_F(CliContract, ReplayPrintsRunsSampleTable) {
    std::string scn = write_file("cli_sampled.scn", kSampledSpec);
    std::string trace = testing::TempDir() + "cli_sampled.jsonl";
    CliOutput run = capture_cli("run " + scn + " --trace " + trace);
    ASSERT_EQ(run.code, 0) << run.err;
    CliOutput replay = capture_cli("replay " + scn + " " + trace);
    ASSERT_EQ(replay.code, 0) << replay.err;
    std::vector<std::string> table = sample_table(run.out);
    ASSERT_EQ(table.size(), 2u + 6u) << run.out;  // header, rule, six samples
    EXPECT_EQ(sample_table(replay.out), table) << replay.out;
}

TEST_F(CliContract, UnknownFlagExitsTwoBeforeAnyWork) {
    // The flag is rejected while parsing, before the fuzz candidates, the
    // shrink, the diff or the replay run, so nothing reaches stdout.
    const std::string cases[] = {
        "fuzz " + pass_scn_ + " --bogus --candidates 2",
        "shrink " + pass_scn_ + " " + trace_path_ + " --bogus",
        "diff " + trace_path_ + " " + trace_path_ + " --bogus",
        "replay " + pass_scn_ + " " + trace_path_ + " --bogus",
    };
    for (const std::string& args : cases) {
        CliOutput cli = capture_cli(args);
        EXPECT_EQ(cli.code, 2) << args;
        EXPECT_NE(cli.err.find("unknown flag '--bogus'"), std::string::npos) << cli.err;
        EXPECT_EQ(cli.out, "") << args;
    }
}

TEST_F(CliContract, FuzzExitCodes) {
    std::string out = testing::TempDir() + "cli_fuzz_repro";
    EXPECT_EQ(run_cli("fuzz " + pass_scn_ + " --candidates 8 --seed 2"), 0);
    EXPECT_EQ(run_cli("fuzz " + faulty_scn_ + " --candidates 8 --seed 2 --out " + out),
              1);
    // The failing fuzz wrote a shrunk reproducer pair that replays cleanly.
    EXPECT_EQ(run_cli("replay " + out + "-cli-faulty.scn " + out +
                      "-cli-faulty.jsonl"),
              0);
    EXPECT_EQ(run_cli("fuzz /nonexistent.scn"), 2);
}

TEST_F(CliContract, ShrinkExitCodes) {
    // The passing trace breaks nothing: a verdict failure, not an error.
    EXPECT_EQ(run_cli("shrink " + pass_scn_ + " " + trace_path_), 1);
    EXPECT_EQ(run_cli("shrink " + pass_scn_ + " /nonexistent.jsonl"), 2);

    // Record the faulty run and shrink it.
    auto spec = scenario::ScenarioSpec::parse_file(faulty_scn_);
    auto result = scenario::ScenarioRunner(spec).run();
    std::string faulty_trace = testing::TempDir() + "cli_faulty.jsonl";
    scenario::write_trace_file(faulty_trace, result.to_trace(spec));
    std::string out = testing::TempDir() + "cli_shrink_repro";
    EXPECT_EQ(run_cli("shrink " + faulty_scn_ + " " + faulty_trace + " --out " + out),
              0);
    EXPECT_EQ(run_cli("replay " + out + ".scn " + out + ".jsonl"), 0);
}
