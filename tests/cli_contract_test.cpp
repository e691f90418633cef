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
#include <utility>
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

/// A fresh directory under TempDir holding `specs` (filename -> text).
/// TempDir persists across runs, so a previous run's files are removed.
std::string make_spec_dir(const std::string& name,
                          const std::vector<std::pair<std::string, std::string>>& specs) {
    std::string dir = testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    for (const auto& [file, text] : specs) std::ofstream(dir + "/" + file) << text;
    return dir;
}

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
    // --max-steps is gone: an unknown flag, rejected before any spec runs.
    CliOutput steps = capture_cli("run " + pass_scn_ + " --max-steps 5");
    EXPECT_EQ(steps.code, 2);
    EXPECT_NE(steps.err.find("unknown flag '--max-steps'"), std::string::npos) << steps.err;
    EXPECT_EQ(steps.out.find("VERDICT"), std::string::npos) << steps.out;

    // An unwritable report or trace path is a file error, exit 2, and the
    // report path is opened before any spec runs.
    CliOutput unwritable = capture_cli("run " + pass_scn_ + " --json /nonexistent/x.json");
    EXPECT_EQ(unwritable.code, 2);
    EXPECT_NE(unwritable.err.find("cannot open /nonexistent/x.json"), std::string::npos)
        << unwritable.err;
    EXPECT_EQ(unwritable.out.find("VERDICT"), std::string::npos) << unwritable.out;
    EXPECT_EQ(run_cli("run " + pass_scn_ + " --trace /nonexistent/x.jsonl"), 2);

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

TEST_F(CliContract, ZeroStretchSamplesExitTwoBeforeAnyWork) {
    // Zero stretch sources would run no BFS and still report stretch 1.00,
    // passing any `expect stretch <= X`: the parser rejects the directive.
    std::string spec = kSampledSpec;
    spec.replace(spec.find("sample_every 5"), 14, "sample_every 5\nstretch_samples 0");
    spec += "expect stretch <= 100\n";
    CliOutput cli = capture_cli("run " + write_file("cli_stretch_zero.scn", spec));
    EXPECT_EQ(cli.code, 2);
    EXPECT_NE(cli.err.find("spec line 7: stretch_samples must be >= 1"), std::string::npos)
        << cli.err;
    EXPECT_EQ(cli.out.find("VERDICT"), std::string::npos) << cli.out;
}

TEST_F(CliContract, UnreadComponentParamsExitTwoBeforeAnyWork) {
    // A misspelt param would otherwise run silently at its default: every
    // subcommand that builds a session rejects it, naming the kind and the
    // key, before any stepping.
    std::string spec = kPassingSpec;
    spec.replace(spec.find("topology cycle n=16"), 19, "topology cycle n=16 nn=999");
    std::string scn = write_file("cli_unread.scn", spec);
    std::string dir = make_spec_dir("cli_unread_dir", {{"only.scn", spec}});
    for (const std::string& args :
         {"run " + scn, "run " + dir, "replay " + scn + " " + trace_path_,
          "fuzz " + scn + " --candidates 2", "shrink " + scn + " " + trace_path_}) {
        CliOutput cli = capture_cli(args);
        EXPECT_EQ(cli.code, 2) << args;
        EXPECT_NE(cli.err.find("topology 'cycle' does not read param 'nn'"),
                  std::string::npos)
            << args << ": " << cli.err;
        EXPECT_EQ(cli.out.find("VERDICT"), std::string::npos) << args << ": " << cli.out;
    }
    std::string healer = kPassingSpec;
    healer.replace(healer.find("healer cycle"), 12, "healer xheal d=2 rebild=false");
    CliOutput cli = capture_cli("run " + write_file("cli_unread_healer.scn", healer));
    EXPECT_EQ(cli.code, 2);
    EXPECT_NE(cli.err.find("healer 'xheal' does not read param 'rebild'"), std::string::npos)
        << cli.err;
    // Network faults are phase keys only: the healer-level knob is unread.
    healer.replace(healer.find("healer xheal d=2 rebild=false"), 29,
                   "healer xheal-dist d=2 drop=0.1");
    cli = capture_cli("run " + write_file("cli_unread_drop.scn", healer));
    EXPECT_EQ(cli.code, 2);
    EXPECT_NE(cli.err.find("healer 'xheal-dist' does not read param 'drop'"),
              std::string::npos)
        << cli.err;
    EXPECT_EQ(cli.out.find("VERDICT"), std::string::npos) << cli.out;
}

TEST_F(CliContract, UnknownNamesAndNonFiniteNumbersExitTwoBeforeAnySpecRuns) {
    // Each bad spec sorts after a good one: the whole list is parsed and
    // checked before the good spec runs, so nothing reaches a VERDICT.
    struct Case {
        const char* from;
        const char* to;
        const char* fragment;
    };
    const std::string two_phases =
        std::string(kPassingSpec) +
        "phase more steps=2 delete_fraction=0.5 deleter=random inserter=random-attach\n";
    const Case cases[] = {
        {"expect connected", "probes connected lambda3\nexpect connected",
         "unknown probe: 'lambda3'"},
        {"topology cycle n=16", "topology tesseract", "unknown topology kind: 'tesseract'"},
        {"topology cycle n=16", "topology erdos-renyi n=16 p=nan",
         "erdos-renyi.p: not a finite number 'nan'"},
        {"healer cycle", "healer faulty inner=xheal",
         "faulty healer: inner must be a stateless baseline"},
        {"healer cycle", "healer faulty inner=bandaid",
         "unknown faulty inner healer kind: 'bandaid'"},
        {"phase more steps=2 delete_fraction=0.5 deleter=random",
         "phase more steps=2 delete_fraction=0.5 deleter=bogus",
         "phase 'more' unknown deleter kind: 'bogus'"},
        {"phase more steps=2 delete_fraction=0.5 deleter=random",
         "phase more steps=2 delete_fraction=0.5 deleter=random:1,bogus:1",
         "phase 'more' unknown deleter kind: 'bogus'"},
        {"inserter=random-attach\n", "inserter=bogus\n",
         "phase 'more' unknown inserter kind: 'bogus'"},
        {"deleter=random inserter=random-attach\n", "deleter=bridge-hunter\n",
         "phase 'more' deleter 'bridge-hunter' requires an xheal-family healer"},
        {"steps=2", "steps=2 drop=nan", "drop: not a finite number 'nan'"},
        {"steps=2 delete_fraction=0.5", "steps=2 delete_fraction=nan",
         "delete_fraction: not a finite number 'nan'"},
        {"expect connected", "expect lambda2 >= nan", "not a finite number 'nan'"},
        // The Theorem 5 bill keys are ceilings with a finite value.
        {"expect connected", "expect messages_per_delete >= 10",
         "unsupported expectation 'messages_per_delete >='"},
        {"expect connected", "expect rounds_per_delete <=",
         "expect rounds_per_delete needs <op> <value>"},
        {"expect connected", "expect retries_per_delete <= nan",
         "expect retries_per_delete: not a finite number 'nan'"},
    };
    for (const Case& c : cases) {
        std::string bad = two_phases;
        auto at = bad.rfind(c.from);
        ASSERT_NE(at, std::string::npos) << c.from;
        bad.replace(at, std::string(c.from).size(), c.to);
        std::string dir =
            make_spec_dir("cli_bad_names", {{"a_good.scn", kPassingSpec}, {"b_bad.scn", bad}});
        CliOutput cli = capture_cli("run " + dir);
        EXPECT_EQ(cli.code, 2) << c.to;
        EXPECT_NE(cli.err.find(c.fragment), std::string::npos) << c.to << ": " << cli.err;
        EXPECT_EQ(cli.out.find("VERDICT"), std::string::npos) << c.to << ": " << cli.out;
    }

    // fuzz checks every spec before fuzzing the first.
    std::string bad = kPassingSpec;
    bad.replace(bad.find("topology cycle n=16"), 19, "topology tesseract");
    CliOutput cli = capture_cli("fuzz " + pass_scn_ + " " + write_file("cli_bad_fuzz.scn", bad) +
                                " --candidates 2");
    EXPECT_EQ(cli.code, 2);
    EXPECT_NE(cli.err.find("unknown topology kind: 'tesseract'"), std::string::npos) << cli.err;
    EXPECT_EQ(cli.out, "");
}

TEST_F(CliContract, RejectionMessagesEscapeControlAndHighBytes) {
    // A NUL, an escape sequence or a high byte in a token prints as \xNN,
    // so the message shows the whole token up to its closing quote.
    struct Case {
        std::string from;
        std::string to;
        std::string message;
    };
    const Case cases[] = {
        {"steps=12", std::string("steps=3\0zz", 10), "steps: bad integer '3\\x00zz'\n"},
        {"delete_fraction=0.5", "delete_fraction=0.5\x1b[0m",
         "delete_fraction: bad number '0.5\\x1b[0m'\n"},
        {"healer cycle", "healer cyc\xffle", "unknown healer kind: 'cyc\\xffle'\n"},
    };
    for (const Case& c : cases) {
        std::string bad = kPassingSpec;
        bad.replace(bad.find(c.from), c.from.size(), c.to);
        CliOutput cli = capture_cli("run " + write_file("cli_escape.scn", bad));
        EXPECT_EQ(cli.code, 2) << c.message;
        EXPECT_NE(cli.err.find(c.message), std::string::npos) << cli.err;
        EXPECT_EQ(cli.out, "") << c.message;
    }
}

TEST_F(CliContract, PrintAndListExitCodes) {
    EXPECT_EQ(run_cli("print " + pass_scn_), 0);
    EXPECT_EQ(run_cli("print /nonexistent.scn"), 2);
    // list prints every probe and expectation metric from the spec tables,
    // and every phase key.
    CliOutput list = capture_cli("list");
    EXPECT_EQ(list.code, 0);
    std::size_t at = list.out.find("probes    :");
    ASSERT_NE(at, std::string::npos) << list.out;
    std::string probes = list.out.substr(at, list.out.find('\n', at) - at) + " ";
    for (std::string_view probe : scenario::probe_names)
        EXPECT_NE(probes.find(" " + std::string(probe) + " "), std::string::npos) << probe;
    for (const auto& metric : scenario::expectation_metrics)
        EXPECT_NE(list.out.find("expect " + std::string(metric.name) +
                                (metric.op.empty() ? "\n" : " " + std::string(metric.op))),
                  std::string::npos)
            << metric.name << ": " << list.out;
    for (const char* key : {"steps=", "seed=", "burst=", "insert_burst=", "batch=", "compact=",
                            "drop=", "latency=", "delete_fraction=", "min_nodes=", "deleter=",
                            "inserter=", "k=", "deleter.", "inserter."})
        EXPECT_NE(list.out.find(key), std::string::npos) << key;
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

TEST_F(CliContract, RunDirectoryExitCodes) {
    // A directory with one passing spec: success, and --json writes its
    // row. The v2 report has no jobs count, no shards and no stall column.
    std::string dir = make_spec_dir("cli_dir_pass", {{"only.scn", kPassingSpec}});
    std::string json = testing::TempDir() + "cli_dir.json";
    EXPECT_EQ(run_cli("run " + dir + " --json " + json), 0);
    std::string body = read_file(json);
    EXPECT_NE(body.find("\"schema\": \"xheal-report-v2\""), std::string::npos);
    EXPECT_EQ(body.find("\"jobs\""), std::string::npos);
    EXPECT_EQ(body.find("\"shards\""), std::string::npos);
    EXPECT_EQ(body.find("probe_stall_seconds"), std::string::npos);
    EXPECT_NE(body.find("\"file\": \"" + dir + "/only.scn\""), std::string::npos) << body;
    // The keys the perf floors, the Theorem 5 ceilings and the CI
    // extractors read; billing columns are present (0 for local healers).
    std::vector<std::string> keys = first_row_keys(body);
    for (const char* key : {"scenario", "steps_per_sec", "probe_ms_per_sample", "deletions",
                            "messages", "rounds", "retries", "trace_hash", "fingerprint",
                            "events", "pass"})
        EXPECT_NE(std::find(keys.begin(), keys.end(), key), keys.end()) << key;

    // --trace takes a directory that expands to exactly one spec.
    std::string trace = testing::TempDir() + "cli_dir.jsonl";
    EXPECT_EQ(run_cli("run " + dir + " --trace " + trace), 0);

    // A file and a directory mix: one row per spec, file rows first.
    CliOutput mixed = capture_cli("run " + pass_scn_ + " " + dir + " --json " + json);
    EXPECT_EQ(mixed.code, 0) << mixed.err;
    std::regex verdict("VERDICT scenario-cli-pass PASS");
    EXPECT_EQ(std::distance(std::sregex_iterator(mixed.out.begin(), mixed.out.end(), verdict),
                            std::sregex_iterator()),
              2);
    body = read_file(json);
    EXPECT_LT(body.find(pass_scn_), body.find(dir + "/only.scn")) << body;

    // One FAIL spec in the directory: verdict failure; and --trace now
    // sees two specs.
    std::ofstream(dir + "/bad.scn") << kFailingSpec;
    EXPECT_EQ(run_cli("run " + dir), 1);
    CliOutput traced = capture_cli("run " + dir + " --trace " + trace);
    EXPECT_EQ(traced.code, 2);
    EXPECT_NE(traced.err.find("--trace requires exactly one spec"), std::string::npos)
        << traced.err;

    // A malformed spec anywhere in the directory exits 2 before any spec
    // runs, even one that sorts after a good spec.
    std::string broken = make_spec_dir(
        "cli_dir_broken", {{"a_good.scn", kPassingSpec}, {"b_bad.scn", "topology\n"}});
    CliOutput cli = capture_cli("run " + broken);
    EXPECT_EQ(cli.code, 2);
    EXPECT_EQ(cli.out.find("VERDICT"), std::string::npos) << cli.out;

    // Environment errors: missing directory, empty directory.
    EXPECT_EQ(run_cli("run /nonexistent-dir"), 2);
    std::string empty = make_spec_dir("cli_dir_empty", {});
    cli = capture_cli("run " + empty);
    EXPECT_EQ(cli.code, 2);
    EXPECT_NE(cli.err.find("no .scn specs in"), std::string::npos) << cli.err;

    // The removed batch command and its pool and healer-override flags.
    EXPECT_EQ(run_cli("batch " + dir), 2);
    for (const char* flag : {"--jobs 2", "--healer cycle"}) {
        cli = capture_cli("run " + dir + " " + flag);
        EXPECT_EQ(cli.code, 2) << flag;
        EXPECT_NE(cli.err.find("unknown flag"), std::string::npos) << cli.err;
        EXPECT_EQ(cli.out.find("VERDICT"), std::string::npos) << cli.out;
    }
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

TEST_F(CliContract, RemovedForensicsFlagsAreUnknown) {
    // The lambda2 floor comes only from the spec, and the fuzz stop rule is
    // a constant: the old flags are rejected before any work.
    const std::pair<std::string, std::string> cases[] = {
        {"fuzz " + pass_scn_ + " --lambda2-floor 0.1", "--lambda2-floor"},
        {"fuzz " + pass_scn_ + " --max-findings 1", "--max-findings"},
        {"shrink " + pass_scn_ + " " + trace_path_ + " --lambda2-floor 0.1",
         "--lambda2-floor"},
    };
    for (const auto& [args, flag] : cases) {
        CliOutput cli = capture_cli(args);
        EXPECT_EQ(cli.code, 2) << args;
        EXPECT_NE(cli.err.find("unknown flag '" + flag + "'"), std::string::npos) << cli.err;
        EXPECT_EQ(cli.out, "") << args;
    }
}

TEST_F(CliContract, ShrinkJudgesTheSpecsLambda2Floor) {
    // The spec's `expect lambda2 >=` clause is the lambda2-floor oracle:
    // shrink finds the violation, the reproducer spec keeps the clause, and
    // shrinking the reproducer pair finds it again.
    std::string text = kPassingSpec;
    text += "expect lambda2 >= 0.5\n";
    std::string scn = write_file("cli_floor.scn", text);
    auto spec = scenario::ScenarioSpec::parse_file(scn);
    auto result = scenario::ScenarioRunner(spec).run();
    ASSERT_FALSE(result.passed());  // a churned 16-cycle sits far below 0.5
    std::string trace = testing::TempDir() + "cli_floor.jsonl";
    scenario::write_trace_file(trace, result.to_trace(spec));

    std::string out = testing::TempDir() + "cli_floor_repro";
    CliOutput first = capture_cli("shrink " + scn + " " + trace + " --out " + out);
    EXPECT_EQ(first.code, 0) << first.out << first.err;
    EXPECT_NE(first.out.find("[lambda2-floor]"), std::string::npos) << first.out;
    EXPECT_NE(read_file(out + ".scn").find("expect lambda2 >= 0.500000\n"), std::string::npos)
        << read_file(out + ".scn");

    CliOutput again = capture_cli("shrink " + out + ".scn " + out + ".jsonl --out " + out +
                                  "-again");
    EXPECT_EQ(again.code, 0) << again.out << again.err;
    EXPECT_NE(again.out.find("[lambda2-floor]"), std::string::npos) << again.out;
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
