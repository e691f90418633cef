// xheal_run — the one CLI driver for declarative scenarios.
//
//   xheal_run run <spec.scn> [more specs...] [--trace FILE] [--json FILE]
//             [--max-steps N]
//       Execute each spec's phase schedule; print per-phase accounting, the
//       sampled metric series, and a greppable "VERDICT scenario-<name>
//       PASS|FAIL" line per spec (FAIL when an `expect` clause is violated).
//       --trace (single spec only) writes the deterministic JSONL event
//       trace; --json writes the report (one row per spec, the schema
//       batch writes too); --max-steps truncates the schedule after N total steps (CI
//       smoke runs of large specs such as dex_scale.scn).
//   xheal_run batch <dir> [--healer KIND] [--json FILE] [--max-steps N]
//             [--jobs N]
//       Run every *.scn in <dir> (sorted by filename, so reports are
//       deterministic); --json writes the same report schema as run, one
//       row per spec: verdict, stream hash, final-graph fingerprint,
//       stepping and probe throughput, protocol billing. --healer overrides every spec's healer kind — the
//       tournament mode: the same schedule directory scored against
//       different healers produces comparable hash/metric rows. --jobs runs
//       the specs on a fixed pool of N worker threads; every deterministic
//       field of the report (verdicts, hashes, fingerprints, metric values)
//       is byte-identical at any --jobs value — only timing varies.
//   xheal_run replay <spec.scn> <trace.jsonl>
//       Re-apply a recorded trace against a fresh session from the same
//       spec, print run's phase and sample tables (replay samples equal
//       run's bitwise) and verify trace hash + final-graph fingerprint
//       byte-for-byte.
//   xheal_run print <spec.scn>
//       Parse and echo the canonical spec text (round-trip check).
//   xheal_run list
//       Show every registry key the spec grammar can name.
//   xheal_run diff <a.jsonl> <b.jsonl> [--context N]
//       Structurally compare two traces and report the first divergent
//       event with surrounding context (trace_tools/diff.hpp).
//   xheal_run fuzz <spec.scn>... [--candidates N] [--seed S] [--out BASE]
//             [--max-findings M] [--lambda2-floor X] [--check-every N]
//       Mutate each spec's schedule and recorded event stream N times,
//       executing every candidate under the invariant oracle suite; the
//       first finding per spec is ddmin-shrunk and written as a
//       BASE-<name>.scn / BASE-<name>.jsonl reproducer pair.
//   xheal_run shrink <spec.scn> <trace.jsonl> [--out BASE]
//             [--lambda2-floor X] [--check-every N]
//       Reduce an invariant-breaking event stream to a minimal reproducer
//       and write the standalone BASE.scn / BASE.jsonl pair. On huge
//       streams (dex_scale-sized), coarsen the oracle cadence with
//       --check-every (0 = final-only) — the per-event structural suite is
//       O(n+m) per event.
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
#include <cctype>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "scenario/runner.hpp"
#include "trace_tools/batch.hpp"
#include "trace_tools/diff.hpp"
#include "trace_tools/fuzz.hpp"
#include "trace_tools/shrink.hpp"
#include "util/table.hpp"

using namespace xheal;

namespace {

int usage() {
    std::cerr << "usage:\n"
              << "  xheal_run run <spec.scn>... [--trace FILE] [--json FILE] "
                 "[--max-steps N]\n"
              << "  xheal_run batch <dir> [--healer KIND] [--json FILE] "
                 "[--max-steps N] [--jobs N]\n"
              << "  xheal_run replay <spec.scn> <trace.jsonl>\n"
              << "  xheal_run print <spec.scn>\n"
              << "  xheal_run list\n"
              << "  xheal_run diff <a.jsonl> <b.jsonl> [--context N]\n"
              << "  xheal_run fuzz <spec.scn>... [--candidates N] [--seed S] "
                 "[--out BASE] [--max-findings M] [--lambda2-floor X] "
                 "[--check-every N]\n"
              << "  xheal_run shrink <spec.scn> <trace.jsonl> [--out BASE] "
                 "[--lambda2-floor X] [--check-every N]\n"
              << "  (--check-every N runs the structural oracles every Nth "
                 "event, 0 = final only — use a coarse cadence on huge "
                 "streams like dex_scale)\n"
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

/// Strict whole-string unsigned parse: "abc", "200x", "-1", " 1" and "" are
/// malformed, and so is 0 when `positive`.
template <typename T>
Flag count_flag(const char* name, T& out, bool positive = false) {
    return {name, positive ? "a positive integer" : "a non-negative integer",
            [&out, positive](const std::string& value) {
                if (value.empty() || !std::isdigit(static_cast<unsigned char>(value[0])))
                    return false;
                std::size_t consumed = 0;
                unsigned long long n = 0;
                try {
                    n = std::stoull(value, &consumed);
                } catch (const std::exception&) {
                    return false;
                }
                if (consumed != value.size() || (positive && n == 0)) return false;
                out = static_cast<T>(n);
                return true;
            }};
}

/// Strict whole-string finite-double parse ("0.5x" and "nan" are malformed).
Flag finite_flag(const char* name, double& out) {
    return {name, "a finite number", [&out](const std::string& value) {
                std::size_t consumed = 0;
                double x = 0.0;
                try {
                    x = std::stod(value, &consumed);
                } catch (const std::exception&) {
                    return false;
                }
                if (consumed != value.size() || !std::isfinite(x)) return false;
                out = x;
                return true;
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
            std::cerr << "unknown flag '" << arg << "'\n";
            return std::nullopt;
        }
        if (++i >= args.size()) {
            std::cerr << arg << " needs " << flag->wants << "\n";
            return std::nullopt;
        }
        if (!flag->set(args[i])) {
            std::cerr << arg << " needs " << flag->wants << ", got '" << args[i] << "'\n";
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

/// xheal-report-v1, the one schema of `run --json` and `batch --json`: the
/// worker pool size ("jobs", always 1 for run) and one row per executed
/// spec (trace_tools::BatchOutcome). `file` is the spec path as given to
/// run, or the filename within the batch directory; `healer` is the kind
/// that ran (a batch --healer override applied). Billing columns
/// (deletions, messages, rounds, retries) are cumulative and deterministic,
/// 0 for non-message-passing healers; Theorem 5 floors divide them by
/// deletions. Hashes, verdicts, probe counts and billing are byte-stable at
/// any jobs count; the timing fields are not.
int write_report(const std::string& path, std::size_t jobs,
                 const std::vector<trace_tools::BatchOutcome>& rows) {
    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot open " << path << "\n";
        return 1;
    }
    out << "{\n  \"schema\": \"xheal-report-v1\",\n"
        << "  \"note\": \"one row per spec: verdict, deterministic stream hash + "
           "final-graph fingerprint, stepping throughput (adversary+healer "
           "steps/sec), probe cost (seconds in metric probes, ms per sample, "
           "snapshot rebuilds vs rows patched) and distributed-protocol billing "
           "(messages/rounds/retries, cumulative; 0 for local healers); only the "
           "timing fields vary with jobs\",\n"
        << "  \"jobs\": " << jobs << ",\n"
        << "  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const trace_tools::BatchOutcome& r = rows[i];
        out << "    {\"file\": \"" << json_escape(r.file) << "\", \"scenario\": \""
            << json_escape(r.scenario) << "\", \"healer\": \"" << json_escape(r.healer)
            << "\", \"pass\": " << (r.pass ? "true" : "false")
            << ", \"steps\": " << r.steps << ", \"events\": " << r.events
            << ", \"trace_hash\": \"" << scenario::hex64(r.trace_hash)
            << "\", \"fingerprint\": \"" << scenario::hex64(r.fingerprint)
            << "\", \"seconds\": " << util::format_double(r.seconds, 6)
            << ", \"steps_per_sec\": " << static_cast<std::uint64_t>(r.steps_per_sec)
            << ", \"probe_seconds\": " << util::format_double(r.probe_seconds, 6)
            << ", \"samples\": " << r.samples
            << ", \"probe_ms_per_sample\": " << util::format_double(r.probe_ms_per_sample(), 3)
            << ", \"probe_rebuilds\": " << r.probe_rebuilds
            << ", \"probe_patched_events\": " << r.probe_patched_events
            << ", \"deletions\": " << r.deletions
            << ", \"messages\": " << r.messages
            << ", \"rounds\": " << r.rounds
            << ", \"retries\": " << r.retries
            << ", \"failures\": [";
        for (std::size_t f = 0; f < r.failures.size(); ++f)
            out << (f == 0 ? "" : ", ") << "\"" << json_escape(r.failures[f]) << "\"";
        out << "]}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "wrote " << path << "\n";
    return 0;
}

/// Truncate a schedule after `max_steps` total steps, dropping now-empty
/// phases (reduced CI smoke runs of large specs). 0 = unlimited.
void truncate_schedule(scenario::ScenarioSpec& spec, std::size_t max_steps) {
    if (max_steps == 0) return;
    std::size_t remaining = max_steps;
    for (auto& phase : spec.phases) {
        phase.steps = std::min(phase.steps, remaining);
        remaining -= phase.steps;
    }
    std::erase_if(spec.phases,
                  [](const scenario::PhaseSpec& p) { return p.steps == 0; });
}

int cmd_run(const std::vector<std::string>& args) {
    std::string trace_path, json_path;
    std::size_t max_steps = 0;  // 0 = unlimited
    auto spec_paths = parse_args(args, {text_flag("--trace", trace_path),
                                        text_flag("--json", json_path),
                                        count_flag("--max-steps", max_steps, true)});
    if (!spec_paths) return 2;
    if (spec_paths->empty()) return usage();
    if (!trace_path.empty() && spec_paths->size() != 1) {
        std::cerr << "--trace requires exactly one spec\n";
        return 2;
    }

    bool all_pass = true;
    std::vector<trace_tools::BatchOutcome> rows;
    for (const std::string& path : *spec_paths) {
        auto spec = scenario::ScenarioSpec::parse_file(path);
        truncate_schedule(spec, max_steps);
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
        rows.push_back(trace_tools::summarize(path, spec, result));
    }
    if (!json_path.empty() && write_report(json_path, 1, rows) != 0) return 1;
    return all_pass ? 0 : 1;
}

int cmd_batch(const std::vector<std::string>& args) {
    std::string json_path, healer_override;
    std::size_t max_steps = 0;
    std::size_t jobs = 1;
    auto positional = parse_args(args, {text_flag("--json", json_path),
                                        text_flag("--healer", healer_override),
                                        count_flag("--max-steps", max_steps, true),
                                        count_flag("--jobs", jobs, true)});
    if (!positional) return 2;
    if (positional->size() != 1) return usage();
    const std::string& dir = positional->front();

    namespace fs = std::filesystem;
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) {
        std::cerr << "batch: not a directory: " << dir << "\n";
        return 2;
    }
    // Sorted filenames, not directory order: the report (and its hashes)
    // must be byte-stable across filesystems.
    std::vector<std::string> files;
    for (const auto& entry : fs::directory_iterator(dir))
        if (entry.is_regular_file() && entry.path().extension() == ".scn")
            files.push_back(entry.path().filename().string());
    std::sort(files.begin(), files.end());
    if (files.empty()) {
        std::cerr << "batch: no .scn specs in " << dir << "\n";
        return 2;
    }

    // Parse every spec on this thread so malformed files keep the usual
    // exit-2 path (parse errors throw and are caught in main).
    std::vector<trace_tools::BatchJob> batch_jobs;
    batch_jobs.reserve(files.size());
    for (const std::string& file : files) {
        auto spec = scenario::ScenarioSpec::parse_file((fs::path(dir) / file).string());
        if (!healer_override.empty())
            // Kind replacement drops the spec's healer params: a tournament
            // scores healers at their registry defaults, not with one
            // contestant's tuning applied to another.
            spec.healer = scenario::ComponentSpec{healer_override, {}};
        truncate_schedule(spec, max_steps);
        batch_jobs.push_back({file, std::move(spec)});
    }

    auto rows = trace_tools::run_batch(batch_jobs, jobs);

    // A runner that threw (unknown healer kind, invariant breach at
    // construction, ...) is an environment/usage error for the whole batch,
    // same as before the worker pool existed.
    for (const auto& r : rows)
        if (r.errored) {
            std::cerr << "error: " << r.error << "\n";
            return 2;
        }

    bool all_pass = true;
    for (const auto& r : rows) {
        for (const auto& failure : r.failures)
            std::cout << "expectation failed — " << r.scenario << ": " << failure << "\n";
        std::cout << "VERDICT batch-" << r.scenario << " " << (r.pass ? "PASS" : "FAIL")
                  << " — " << r.file << ", healer " << r.healer << ", " << r.events
                  << " events, trace " << scenario::hex64(r.trace_hash)
                  << ", fingerprint " << scenario::hex64(r.fingerprint) << "\n";
        all_pass = all_pass && r.pass;
    }

    util::Table table({"file", "scenario", "healer", "verdict", "steps", "events",
                       "steps/sec", "probe-ms/sample", "trace", "fingerprint"});
    for (const trace_tools::BatchOutcome& r : rows) {
        table.row()
            .add(r.file)
            .add(r.scenario)
            .add(r.healer)
            .add(r.pass ? "PASS" : "FAIL")
            .add(r.steps)
            .add(r.events)
            .add(util::format_double(r.steps_per_sec, 0))
            .add(util::format_double(r.probe_ms_per_sample(), 2))
            .add(scenario::hex64(r.trace_hash))
            .add(scenario::hex64(r.fingerprint));
    }
    std::cout << "\n";
    table.print(std::cout);
    std::cout << "VERDICT batch " << (all_pass ? "PASS" : "FAIL") << " — " << rows.size()
              << " specs from " << dir << "\n";

    if (!json_path.empty() && write_report(json_path, jobs, rows) != 0) return 1;
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

/// Reproducer specs must carry the oracle context that produced the
/// finding: re-emit the *effective* lambda2 floor as an `expect lambda2 >=`
/// clause — replacing any clause the spec already had, which an explicit
/// --lambda2-floor may have overridden — so a parameterless
/// `xheal_run shrink repro.scn repro.jsonl` re-derives it and
/// re-demonstrates the violation.
scenario::ScenarioSpec reproducer_spec(scenario::ScenarioSpec spec,
                                       const trace_tools::ExecOptions& exec) {
    if (std::isnan(exec.lambda2_floor)) return spec;
    std::erase_if(spec.expectations, [](const scenario::Expectation& e) {
        return e.kind == scenario::Expectation::Kind::lambda2_ge;
    });
    scenario::Expectation floor;
    floor.kind = scenario::Expectation::Kind::lambda2_ge;
    floor.value = exec.lambda2_floor;
    spec.expectations.push_back(floor);
    return spec;
}

/// The spec's own `expect lambda2 >=` clause doubles as the fuzz/shrink
/// oracle floor unless one was given explicitly on the command line.
void derive_lambda2_floor(const scenario::ScenarioSpec& spec,
                          trace_tools::ExecOptions& exec) {
    if (!std::isnan(exec.lambda2_floor)) return;
    for (const auto& e : spec.expectations)
        if (e.kind == scenario::Expectation::Kind::lambda2_ge)
            exec.lambda2_floor = e.value;
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
    auto [scn, trace] = trace_tools::write_reproducer(
        out_base, reproducer_spec(spec, options.exec), shrunk);
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
               count_flag("--max-findings", options.max_findings),
               finite_flag("--lambda2-floor", options.exec.lambda2_floor),
               count_flag("--check-every", options.exec.check_every),
               text_flag("--out", out_base)});
    if (!spec_paths) return 2;
    if (spec_paths->empty()) return usage();

    bool all_clean = true;
    for (const std::string& path : *spec_paths) {
        auto spec = scenario::ScenarioSpec::parse_file(path);
        // Per-spec copy: a floor derived from one spec must not leak into
        // the next one of the same invocation.
        trace_tools::FuzzOptions spec_options = options;
        derive_lambda2_floor(spec, spec_options.exec);

        trace_tools::TraceFuzzer fuzzer(spec, spec_options);
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
                shrink_options.exec = spec_options.exec;
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
                                   finite_flag("--lambda2-floor", options.exec.lambda2_floor),
                                   count_flag("--check-every", options.exec.check_every)});
    if (!paths) return 2;
    if (paths->size() != 2) return usage();
    auto spec = scenario::ScenarioSpec::parse_file((*paths)[0]);
    auto trace = scenario::read_trace_file((*paths)[1]);
    derive_lambda2_floor(spec, options.exec);

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
    auto print_list = [](const char* title, const std::vector<std::string>& names) {
        std::cout << title << ":";
        for (const auto& n : names) std::cout << " " << n;
        std::cout << "\n";
    };
    print_list("topologies", scenario::topology_names());
    print_list("healers   ", scenario::healer_names());
    print_list("deleters  ", scenario::deleter_names());
    print_list("inserters ", scenario::inserter_names());
    print_list("probes    ", {"connected", "degree", "expansion", "lambda2", "stretch"});
    std::cout << "\nspec grammar (see DESIGN.md decisions 5 and 8):\n"
              << "  name <id> | seed <n> | topology <kind> k=v... | healer <kind> k=v...\n"
              << "  probes <name>... | sample_every <n> | stretch_samples <n>\n"
              << "  phase <id> steps=N [seed=S] [burst=B] [insert_burst=I]\n"
              << "        [drop=P] [latency=L]  (lossy network, message-passing "
                 "healers)\n"
              << "        [delete_fraction=F | delete_fraction=A..B] [min_nodes=M]\n"
              << "        [deleter=<kind> | deleter=<k1>:<w1>,<k2>:<w2>] "
                 "[inserter=<kind>]\n"
              << "        [k=K] [deleter.x=v] [inserter.x=v]\n"
              << "  expect connected | expect <metric> <=|>= <value>\n";
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) return usage();
    std::string command = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    try {
        if (command == "run") return cmd_run(args);
        if (command == "batch") return cmd_batch(args);
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
