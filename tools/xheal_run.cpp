// xheal_run — the one CLI driver for declarative scenarios.
//
//   xheal_run run <spec.scn | dir>... [--trace FILE] [--json FILE]
//       Execute each spec's phase schedule; print per-phase accounting, the
//       sampled metric series, and a greppable "VERDICT scenario-<name>
//       PASS|FAIL" line per spec (FAIL when an `expect` clause is violated).
//       A directory argument stands for its *.scn files sorted by filename,
//       so a report's row order is byte-stable across filesystems. Every
//       spec is parsed and checked (check_params) before any runs. --trace
//       (exactly one spec) writes the deterministic JSONL event trace;
//       --json writes the report, one row per spec: verdict, stream hash,
//       final-graph fingerprint, stepping and probe throughput, protocol
//       billing.
//   xheal_run replay <spec.scn> <trace.jsonl>
//       Re-apply a recorded trace against a fresh session from the same
//       spec, print run's phase and sample tables (replay samples equal
//       run's bitwise) and verify trace hash + final-graph fingerprint
//       byte-for-byte.
//   xheal_run print <spec.scn>
//       Parse and echo the canonical spec text (round-trip check).
//   xheal_run list
//       Show every component kind, probe and expectation metric the spec
//       grammar can name, read from the registry and spec tables.
//   xheal_run diff <a.jsonl> <b.jsonl> [--context N]
//       Structurally compare two traces and report the first divergent
//       event with surrounding context (trace_tools/diff.hpp).
//   xheal_run fuzz <spec.scn>... [--candidates N] [--seed S] [--out BASE]
//             [--check-every N]
//       Check every spec, then mutate each one's schedule and recorded
//       event stream N times, executing every candidate under the
//       invariant oracle suite (stopping at eight findings); the first
//       finding per spec is ddmin-shrunk and written as a BASE-<name>.scn /
//       BASE-<name>.jsonl reproducer pair.
//   xheal_run shrink <spec.scn> <trace.jsonl> [--out BASE] [--check-every N]
//       Reduce an invariant-breaking event stream to a minimal reproducer
//       and write the standalone BASE.scn / BASE.jsonl pair. A spec's
//       `expect lambda2 >= X` clause is the lambda2-floor oracle of both
//       commands, checked after the final event, and the reproducer spec
//       carries it, so shrinking the pair finds the violation again. The
//       structural oracles run after every event: the first and the
//       stream-end check sweep the whole graph, the others only the rows
//       touched since the previous check, plus a global connectivity
//       flood, so a check costs O(touched) + O(n+m) for connectivity. On
//       huge streams (dex_scale-sized), coarsen the cadence with
//       --check-every (0 = final-only) to skip the floods.
//
// Exit-code contract (scripting consumers, incl. CI, rely on this):
//   0 — success: run PASS, replay match, diff identical, fuzz clean,
//       shrink produced a reproducer
//   1 — verdict failure: expectation FAIL, replay mismatch, diff
//       divergence, fuzz findings, shrink input that breaks no invariant
//   2 — usage (an unknown --flag, a flag without its value or a malformed
//       value exits before any work runs), missing/unreadable file, or
//       malformed spec/trace
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/runner.hpp"
#include "trace_tools/diff.hpp"
#include "trace_tools/fuzz.hpp"
#include "trace_tools/shrink.hpp"
#include "util/table.hpp"

using namespace xheal;

namespace {

int usage() {
    std::cerr << "usage:\n"
              << "  xheal_run run <spec.scn | dir>... [--trace FILE] [--json FILE]\n"
              << "  xheal_run replay <spec.scn> <trace.jsonl>\n"
              << "  xheal_run print <spec.scn>\n"
              << "  xheal_run list\n"
              << "  xheal_run diff <a.jsonl> <b.jsonl> [--context N]\n"
              << "  xheal_run fuzz <spec.scn>... [--candidates N] [--seed S] "
                 "[--out BASE] [--check-every N]\n"
              << "  xheal_run shrink <spec.scn> <trace.jsonl> [--out BASE] "
                 "[--check-every N]\n"
              << "  (a spec's `expect lambda2 >= X` is the fuzz/shrink "
                 "lambda2-floor oracle)\n"
              << "  (--check-every N runs the structural oracles every Nth "
                 "event, 0 = final only; between the full first and final "
                 "sweeps each check covers the rows touched since the last "
                 "one plus global connectivity — use a coarse cadence on "
                 "huge streams like dex_scale)\n"
              << "exit codes: 0 success, 1 verdict failure (FAIL/mismatch/"
                 "divergence/findings), 2 usage or file errors\n";
    return 2;
}

std::string fmt_or_dash(double v, int precision) {
    return std::isnan(v) ? std::string("-") : util::format_double(v, precision);
}

/// One `--flag VALUE` a subcommand accepts: `set` stores the value and
/// returns false when it is malformed; `wants` names the expected value in
/// the error message.
struct Flag {
    const char* name;
    const char* wants;
    std::function<bool(const std::string&)> set;
};

Flag text_flag(const char* name, std::string& out) {
    return {name, "a value", [&out](const std::string& value) {
                out = value;
                return true;
            }};
}

/// The spec reader's strict parser: "abc", "200x", "-1", "" and "nan" are
/// malformed.
template <typename T>
Flag count_flag(const char* name, T& out) {
    return {name, "a non-negative integer", [&out](const std::string& value) {
                try {
                    out = static_cast<T>(scenario::parse_u64(value, ""));
                    return true;
                } catch (const std::runtime_error&) {
                    return false;
                }
            }};
}

/// The one flag parser: split `args` into positionals and the subcommand's
/// declared flags. An unknown `--flag`, a flag without its value or a
/// malformed value is reported on stderr and yields nullopt, so the caller
/// exits 2 before any work runs.
std::optional<std::vector<std::string>> parse_args(const std::vector<std::string>& args,
                                                   const std::vector<Flag>& flags) {
    std::vector<std::string> positional;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string& arg = args[i];
        if (arg.rfind("--", 0) != 0) {
            positional.push_back(arg);
            continue;
        }
        auto flag = std::find_if(flags.begin(), flags.end(),
                                 [&](const Flag& f) { return arg == f.name; });
        if (flag == flags.end()) {
            std::cerr << "unknown flag " << scenario::quote(arg) << "\n";
            return std::nullopt;
        }
        if (++i >= args.size()) {
            std::cerr << arg << " needs " << flag->wants << "\n";
            return std::nullopt;
        }
        if (!flag->set(args[i])) {
            std::cerr << arg << " needs " << flag->wants << ", got " << scenario::quote(args[i])
                      << "\n";
            return std::nullopt;
        }
    }
    return positional;
}

/// The phase table, the sample table and the probe-snapshot line of one
/// execution: `run` and `replay` both print their RunResult through here.
void print_result(const scenario::RunResult& result) {
    util::Table phases({"phase", "steps", "deletions", "insertions", "skipped",
                        "edges-added", "combines", "mean rounds", "messages",
                        "retries"});
    for (const auto& p : result.phases) {
        phases.row()
            .add(p.name)
            .add(p.steps)
            .add(p.deletions)
            .add(p.insertions)
            .add(p.skipped)
            .add(p.totals.edges_added)
            .add(p.totals.combines)
            .add(p.rounds.mean(), 2)
            .add(static_cast<std::size_t>(p.totals.messages))
            .add(static_cast<std::size_t>(p.totals.retries));
    }
    phases.print(std::cout);
    std::cout << "\n";

    util::Table samples({"step", "phase", "nodes", "edges", "comps", "max-deg-ratio",
                         "h(G)~", "lambda2", "stretch", "probe-ms"});
    for (const auto& s : result.samples) {
        samples.row()
            .add(s.step)
            .add(s.phase)
            .add(s.nodes)
            .add(s.edges)
            .add(s.components == 0 ? std::string("-") : std::to_string(s.components))
            .add(fmt_or_dash(s.max_degree_ratio, 2))
            .add(fmt_or_dash(s.expansion, 3))
            .add(fmt_or_dash(s.lambda2, 4))
            .add(fmt_or_dash(s.stretch, 2))
            .add(util::format_double(s.probe_seconds * 1000.0, 2));
    }
    samples.print(std::cout);
    std::cout << "probe snapshots: " << result.probe_rebuilds << " rebuilds, "
              << result.probe_patched_events << " rows patched in place\n";
}

std::string json_escape(const std::string& text) {
    std::string out;
    for (char c : text) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out;
}

/// One report row: the spec's verdict, stream hash, final-graph
/// fingerprint, timing, probe accounting and Theorem 5 bill. `file` is the
/// spec path as given, or `<dir>/<name>.scn` for a directory's spec.
/// Billing columns (deletions, messages, rounds, retries) are cumulative
/// and deterministic, 0 for non-message-passing healers; Theorem 5 floors
/// divide them by deletions.
std::string report_row(const std::string& file, const scenario::ScenarioSpec& spec,
                       const scenario::RunResult& result) {
    const std::size_t samples = result.samples.size();
    const double probe_ms_per_sample =
        samples > 0 ? result.probe_seconds * 1000.0 / static_cast<double>(samples) : 0.0;
    std::ostringstream row;
    row << "{\"file\": \"" << json_escape(file) << "\", \"scenario\": \""
        << json_escape(spec.name) << "\", \"healer\": \"" << json_escape(spec.healer.kind)
        << "\", \"pass\": " << (result.passed() ? "true" : "false")
        << ", \"steps\": " << result.steps_done << ", \"events\": " << result.events.size()
        << ", \"trace_hash\": \"" << scenario::hex64(result.trace_hash)
        << "\", \"fingerprint\": \"" << scenario::hex64(result.fingerprint)
        << "\", \"seconds\": " << util::format_double(result.seconds, 6)
        << ", \"steps_per_sec\": " << static_cast<std::uint64_t>(result.steps_per_sec())
        << ", \"probe_seconds\": " << util::format_double(result.probe_seconds, 6)
        << ", \"samples\": " << samples
        << ", \"probe_ms_per_sample\": " << util::format_double(probe_ms_per_sample, 3)
        << ", \"probe_rebuilds\": " << result.probe_rebuilds
        << ", \"probe_patched_events\": " << result.probe_patched_events
        << ", \"deletions\": " << result.final_sample.deletions
        << ", \"messages\": " << result.final_sample.messages
        << ", \"rounds\": " << result.final_sample.rounds
        << ", \"retries\": " << result.final_sample.retries << ", \"failures\": [";
    for (std::size_t f = 0; f < result.failures.size(); ++f)
        row << (f == 0 ? "" : ", ") << "\"" << json_escape(result.failures[f]) << "\"";
    row << "]}";
    return row.str();
}

/// xheal-report-v2, the schema of `run --json`: one report_row per
/// executed spec. Hashes, verdicts, probe counts and billing are
/// byte-stable from run to run; the timing fields are not.
bool write_report(std::ofstream& out, const std::string& path,
                  const std::vector<std::string>& rows) {
    out << "{\n  \"schema\": \"xheal-report-v2\",\n"
        << "  \"note\": \"one row per spec: verdict, deterministic stream hash + "
           "final-graph fingerprint, stepping throughput (adversary+healer "
           "steps/sec), probe cost (seconds in metric probes, ms per sample, "
           "snapshot rebuilds vs rows patched) and distributed-protocol billing "
           "(messages/rounds/retries, cumulative; 0 for local healers); only the "
           "timing fields vary from run to run\",\n"
        << "  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i)
        out << "    " << rows[i] << (i + 1 < rows.size() ? "," : "") << "\n";
    out << "  ]\n}\n";
    out.close();
    if (!out) {
        std::cerr << "cannot write " << path << "\n";
        return false;
    }
    std::cout << "wrote " << path << "\n";
    return true;
}

/// The spec paths `run` executes: each argument is a spec file or a
/// directory, and a directory stands for its *.scn files sorted by
/// filename. A directory without specs is an error.
std::vector<std::string> expand_spec_paths(const std::vector<std::string>& args) {
    namespace fs = std::filesystem;
    std::vector<std::string> paths;
    for (const std::string& arg : args) {
        std::error_code ec;
        if (!fs::is_directory(arg, ec)) {
            paths.push_back(arg);
            continue;
        }
        std::vector<std::string> files;
        for (const auto& entry : fs::directory_iterator(arg))
            if (entry.is_regular_file() && entry.path().extension() == ".scn")
                files.push_back(entry.path().string());
        if (files.empty()) throw std::runtime_error("no .scn specs in " + arg);
        std::sort(files.begin(), files.end());
        paths.insert(paths.end(), files.begin(), files.end());
    }
    return paths;
}

/// Parse and check (check_params) every spec before any runs, so a
/// malformed spec or an unknown name anywhere in the list exits 2 (via
/// main) before any work starts.
std::vector<scenario::ScenarioSpec> load_specs(const std::vector<std::string>& paths) {
    std::vector<scenario::ScenarioSpec> specs;
    for (const std::string& path : paths) {
        specs.push_back(scenario::ScenarioSpec::parse_file(path));
        scenario::check_params(specs.back());
    }
    return specs;
}

int cmd_run(const std::vector<std::string>& args) {
    std::string trace_path, json_path;
    auto positional = parse_args(args, {text_flag("--trace", trace_path),
                                        text_flag("--json", json_path)});
    if (!positional) return 2;
    if (positional->empty()) return usage();
    const std::vector<std::string> spec_paths = expand_spec_paths(*positional);
    if (!trace_path.empty() && spec_paths.size() != 1) {
        std::cerr << "--trace requires exactly one spec\n";
        return 2;
    }

    const std::vector<scenario::ScenarioSpec> specs = load_specs(spec_paths);
    // So is the report file: an unwritable path is a file error, not a
    // verdict failure after all the work has run.
    std::ofstream report;
    if (!json_path.empty()) {
        report.open(json_path);
        if (!report) {
            std::cerr << "cannot open " << json_path << "\n";
            return 2;
        }
    }

    bool all_pass = true;
    std::vector<std::string> rows;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const scenario::ScenarioSpec& spec = specs[i];
        auto result = scenario::ScenarioRunner(spec).run();

        std::cout << "scenario " << spec.name << " (seed " << spec.seed << ", healer "
                  << spec.healer.kind << ", " << result.steps_done << " steps, "
                  << result.events.size() << " events, "
                  << util::format_double(result.steps_per_sec(), 0) << " steps/sec)\n\n";
        print_result(result);
        for (const auto& failure : result.failures)
            std::cout << "expectation failed — " << failure << "\n";
        std::cout << "VERDICT scenario-" << spec.name << " "
                  << (result.passed() ? "PASS" : "FAIL") << " — " << result.events.size()
                  << " events, trace 0x" << std::hex << result.trace_hash
                  << ", fingerprint 0x" << result.fingerprint << std::dec << "\n\n";
        all_pass = all_pass && result.passed();

        if (!trace_path.empty()) {
            scenario::write_trace_file(trace_path, result.to_trace(spec));
            std::cout << "wrote trace " << trace_path << "\n";
        }
        if (report.is_open()) rows.push_back(report_row(spec_paths[i], spec, result));
    }
    if (report.is_open() && !write_report(report, json_path, rows)) return 2;
    return all_pass ? 0 : 1;
}

int cmd_replay(const std::vector<std::string>& args) {
    auto paths = parse_args(args, {});
    if (!paths) return 2;
    if (paths->size() != 2) return usage();
    auto spec = scenario::ScenarioSpec::parse_file((*paths)[0]);
    auto trace = scenario::read_trace_file((*paths)[1]);
    if (trace.spec_hash != spec.content_hash())
        std::cout << "note: spec content hash differs from the trace header "
                     "(spec edited since recording?)\n";
    scenario::ScenarioRunner runner(spec);
    auto result = runner.replay(trace);
    print_result(result);

    bool hash_ok = result.trace_hash == trace.trace_hash;
    bool fp_ok = result.fingerprint == trace.fingerprint;
    std::cout << "replayed " << trace.events.size() << " events of scenario "
              << spec.name << "\n"
              << "  trace hash:  recorded 0x" << std::hex << trace.trace_hash
              << ", replayed 0x" << result.trace_hash << (hash_ok ? " (match)" : " (MISMATCH)")
              << "\n  fingerprint: recorded 0x" << trace.fingerprint << ", replayed 0x"
              << result.fingerprint << (fp_ok ? " (match)" : " (MISMATCH)") << std::dec
              << "\n";
    std::cout << "VERDICT replay-" << spec.name << " "
              << (hash_ok && fp_ok ? "PASS" : "FAIL")
              << " — byte-for-byte deterministic replay\n";
    return hash_ok && fp_ok ? 0 : 1;
}

int cmd_diff(const std::vector<std::string>& args) {
    std::size_t context = 3;
    auto paths = parse_args(args, {count_flag("--context", context)});
    if (!paths) return 2;
    if (paths->size() != 2) return usage();
    const std::string& a_path = (*paths)[0];
    const std::string& b_path = (*paths)[1];
    auto a = scenario::read_trace_file(a_path);
    auto b = scenario::read_trace_file(b_path);
    auto diff = trace_tools::diff_traces(a, b);
    std::cout << trace_tools::format_diff(diff, a, b, context);
    std::cout << "VERDICT diff " << (diff.identical() ? "PASS" : "FAIL") << " — " << a_path
              << " vs " << b_path << "\n";
    return diff.identical() ? 0 : 1;
}

void print_violations(const std::vector<trace_tools::ExecViolation>& violations) {
    for (const auto& v : violations)
        std::cout << "  violation after event " << v.event_index << " [" << v.oracle
                  << "]: " << v.message << "\n";
}

/// Shrink a failing stream and write the reproducer pair, printing the
/// summary lines fuzz and shrink share. Returns the reproducer's event
/// count, or nullopt (nothing written) when the input does not fail.
std::optional<std::size_t> shrink_and_write(const scenario::ScenarioSpec& spec,
                                            const std::vector<scenario::TraceEvent>& events,
                                            const trace_tools::ShrinkOptions& options,
                                            const std::string& out_base) {
    auto shrunk = trace_tools::shrink(spec, events, options);
    if (!shrunk.input_failed) return std::nullopt;
    std::cout << "shrunk " << shrunk.input_events << " -> " << shrunk.final_events()
              << " events in " << shrunk.tests_run << " executor runs\n";
    print_violations(shrunk.exec.violations);
    auto [scn, trace] = trace_tools::write_reproducer(out_base, spec, shrunk);
    // Exception reproducers end on the throwing event by design — strict
    // replay surfaces the exception instead of matching hashes.
    bool exception_repro = shrunk.exec.violations[0].oracle == "healer-exception";
    std::cout << "wrote reproducer " << scn << " + " << trace
              << (exception_repro
                      ? " (replay re-raises the healer exception at the final event)"
                      : " (verify: xheal_run replay " + scn + " " + trace + ")")
              << "\n";
    return shrunk.final_events();
}

int cmd_fuzz(const std::vector<std::string>& args) {
    trace_tools::FuzzOptions options;
    std::string out_base = "fuzz-repro";
    auto spec_paths = parse_args(
        args, {count_flag("--candidates", options.candidates),
               count_flag("--seed", options.seed),
               count_flag("--check-every", options.exec.check_every),
               text_flag("--out", out_base)});
    if (!spec_paths) return 2;
    if (spec_paths->empty()) return usage();

    bool all_clean = true;
    for (const scenario::ScenarioSpec& spec : load_specs(*spec_paths)) {
        trace_tools::TraceFuzzer fuzzer(spec, options);
        auto report = fuzzer.run();
        std::cout << "fuzz " << spec.name << ": " << report.candidates_run
                  << " candidates over " << report.base_events << " base events, "
                  << report.findings.size() << " finding(s)\n";
        for (const auto& finding : report.findings) {
            std::cout << "finding: candidate " << finding.candidate << " ["
                      << finding.mutator << "], " << finding.events.size()
                      << " events\n";
            print_violations(finding.exec.violations);
        }
        if (!report.clean()) {
            // Shrink the first finding that carries an event stream; a
            // runner-exception finding (the engine itself threw) has none.
            const trace_tools::FuzzFinding* target = nullptr;
            for (const auto& f : report.findings)
                if (!f.events.empty()) {
                    target = &f;
                    break;
                }
            if (target != nullptr) {
                trace_tools::ShrinkOptions shrink_options;
                shrink_options.exec = options.exec;
                if (!shrink_and_write(target->spec, target->events, shrink_options,
                                      out_base + "-" + spec.name))
                    std::cout << "shrink: input no longer fails (flaky oracle?); skipping\n";
            } else {
                std::cout << "no event stream to shrink (engine exception); "
                             "offending spec:\n"
                          << report.findings.front().spec.to_text();
            }
        }
        std::cout << "VERDICT fuzz-" << spec.name << " "
                  << (report.clean() ? "PASS" : "FAIL") << " — "
                  << report.candidates_run << " candidates\n";
        all_clean = all_clean && report.clean();
    }
    return all_clean ? 0 : 1;
}

int cmd_shrink(const std::vector<std::string>& args) {
    trace_tools::ShrinkOptions options;
    std::string out_base = "repro";
    auto paths = parse_args(args, {text_flag("--out", out_base),
                                   count_flag("--check-every", options.exec.check_every)});
    if (!paths) return 2;
    if (paths->size() != 2) return usage();
    auto spec = scenario::ScenarioSpec::parse_file((*paths)[0]);
    auto trace = scenario::read_trace_file((*paths)[1]);

    auto reproducer_events = shrink_and_write(spec, trace.events, options, out_base);
    if (!reproducer_events) {
        std::cout << "shrink: the " << trace.events.size()
                  << "-event stream breaks no enabled invariant — nothing to shrink\n"
                  << "VERDICT shrink-" << spec.name << " FAIL — input does not fail\n";
        return 1;
    }
    std::cout << "VERDICT shrink-" << spec.name << " PASS — " << *reproducer_events
              << "-event reproducer\n";
    return 0;
}

int cmd_print(const std::vector<std::string>& args) {
    auto paths = parse_args(args, {});
    if (!paths) return 2;
    if (paths->size() != 1) return usage();
    std::cout << scenario::ScenarioSpec::parse_file(paths->front()).to_text();
    return 0;
}

int cmd_list(const std::vector<std::string>& args) {
    auto positional = parse_args(args, {});
    if (!positional) return 2;
    if (!positional->empty()) return usage();
    auto print_list = [](const char* title, const auto& names) {
        std::cout << title << ":";
        for (const auto& n : names) std::cout << " " << n;
        std::cout << "\n";
    };
    print_list("topologies", scenario::topology_names());
    print_list("healers   ", scenario::healer_names());
    print_list("deleters  ", scenario::deleter_names());
    print_list("inserters ", scenario::inserter_names());
    print_list("probes    ", scenario::probe_names);
    std::cout << "\nspec grammar (see DESIGN.md decisions 5 and 8):\n"
              << "  name <id> | seed <n> | topology <kind> k=v... | healer <kind> k=v...\n"
              << "  probes <name>... | sample_every <n> | stretch_samples <n>\n"
              << "  phase <id> steps=N [seed=S] [burst=B] [insert_burst=I]\n"
              << "        [batch=k] [compact=K]  (staged repairs; id compaction)\n"
              << "        [drop=P] [latency=L]  (lossy network, message-passing "
                 "healers)\n"
              << "        [delete_fraction=F | delete_fraction=A..B] [min_nodes=M]\n"
              << "        [deleter=<kind> | deleter=<k1>:<w1>,<k2>:<w2>] "
                 "[inserter=<kind>]\n"
              << "        [k=K] [deleter.x=v] [inserter.x=v]\n";
    for (const auto& m : scenario::expectation_metrics)
        std::cout << "  expect " << m.name << (m.op.empty() ? "" : " ") << m.op
                  << (m.op.empty() ? "" : " <value>") << "\n";
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage();
    std::string command = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    try {
        if (command == "run") return cmd_run(args);
        if (command == "replay") return cmd_replay(args);
        if (command == "print") return cmd_print(args);
        if (command == "list") return cmd_list(args);
        if (command == "diff") return cmd_diff(args);
        if (command == "fuzz") return cmd_fuzz(args);
        if (command == "shrink") return cmd_shrink(args);
    } catch (const std::exception& e) {
        // Unreadable files, malformed specs/traces: environment errors, not
        // verdicts — distinct exit code for scripting consumers.
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }
    return usage();
}
