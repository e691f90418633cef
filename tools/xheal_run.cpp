// xheal_run — the one CLI driver for declarative scenarios.
//
//   xheal_run run <spec.scn> [more specs...] [--trace FILE] [--json FILE]
//             [--max-steps N]
//       Execute each spec's phase schedule; print per-phase accounting, the
//       sampled metric series, and a greppable "VERDICT scenario-<name>
//       PASS|FAIL" line per spec (FAIL when an `expect` clause is violated).
//       --trace (single spec only) writes the deterministic JSONL event
//       trace; --json appends a BENCH_scenarios.json steps/sec + probe-cost
//       report; --max-steps truncates the schedule after N total steps (CI
//       smoke runs of large specs such as dex_scale.scn).
//   xheal_run batch <dir> [--healer KIND] [--json FILE] [--max-steps N]
//             [--jobs N]
//       Run every *.scn in <dir> (sorted by filename, so reports are
//       deterministic) and emit one aggregated JSON report: per-spec
//       verdict, stream hash, final-graph fingerprint, stepping and probe
//       throughput. --healer overrides every spec's healer kind — the
//       tournament mode: the same schedule directory scored against
//       different healers produces comparable hash/metric rows. --jobs runs
//       the specs on a fixed pool of N worker threads; every deterministic
//       field of the report (verdicts, hashes, fingerprints, metric values)
//       is byte-identical at any --jobs value — only timing varies.
//   xheal_run replay <spec.scn> <trace.jsonl>
//       Re-apply a recorded trace against a fresh session from the same
//       spec and verify trace hash + final-graph fingerprint byte-for-byte.
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
//   2 — usage (including an unknown --flag), missing/unreadable file, or
//       malformed spec/trace
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
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

/// A `--flag` no subcommand recognized: exit 2 with its name, instead of
/// reading it as a spec path or directory.
int unknown_flag(const std::string& flag) {
    std::cerr << "unknown flag '" << flag << "'\n";
    return 2;
}

bool is_flag(const std::string& arg) { return arg.rfind("--", 0) == 0; }

std::string fmt_or_dash(double v, int precision) {
    return std::isnan(v) ? std::string("-") : util::format_double(v, precision);
}

/// Strict whole-string unsigned parse for flag values; returns false on
/// "abc", "200x", "-1", "".
bool parse_count(const std::string& text, std::size_t& out) {
    std::size_t consumed = 0;
    try {
        out = static_cast<std::size_t>(std::stoull(text, &consumed));
    } catch (const std::exception&) {
        return false;
    }
    return consumed == text.size() && !text.empty() && text[0] != '-';
}

/// Strict whole-string finite-double parse ("0.5x" and "nan" are rejected,
/// matching parse_count's strictness for the integer flags).
bool parse_finite(const std::string& text, double& out) {
    std::size_t consumed = 0;
    try {
        out = std::stod(text, &consumed);
    } catch (const std::exception&) {
        return false;
    }
    return consumed == text.size() && std::isfinite(out);
}

void print_samples(const scenario::RunResult& result) {
    util::Table table({"step", "phase", "nodes", "edges", "comps", "max-deg-ratio",
                       "h(G)~", "lambda2", "stretch", "probe-ms"});
    for (const auto& s : result.samples) {
        table.row()
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
    table.print(std::cout);
}

void print_phases(const scenario::RunResult& result) {
    util::Table table({"phase", "steps", "deletions", "insertions", "skipped",
                       "edges-added", "combines", "mean rounds", "messages",
                       "retries"});
    for (const auto& p : result.phases) {
        table.row()
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
    table.print(std::cout);
}

struct JsonRow {
    std::string scenario;
    std::size_t steps = 0;
    std::size_t events = 0;
    double seconds = 0.0;
    double steps_per_sec = 0.0;
    double probe_seconds = 0.0;
    std::size_t samples = 0;
    std::uint64_t probe_rebuilds = 0;
    std::uint64_t probe_patched_events = 0;
    std::size_t deletions = 0;
    std::size_t messages = 0;
    std::size_t rounds = 0;
    std::size_t retries = 0;
    bool pass = false;
};

/// xheal-bench-scenarios-v7: v6 without the per-row "probe_stall_seconds"
/// field (probes run inside each sample; stepping never waits on them). v6
/// dropped "shards"; v4 added the distributed-protocol billing columns
/// (deletions, messages, rounds, retries — cumulative, deterministic, 0 for
/// non-message-passing healers); Theorem 5 floors divide messages and
/// rounds by deletions.
int write_json(const std::string& path, const std::vector<JsonRow>& rows) {
    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot open " << path << "\n";
        return 1;
    }
    out << "{\n  \"schema\": \"xheal-bench-scenarios-v7\",\n"
        << "  \"note\": \"scenario engine throughput (adversary+healer steps/sec), "
           "probe cost (seconds spent in metric probes, ms per sample), and "
           "distributed-protocol billing (messages/rounds/retries, cumulative; 0 "
           "for local healers) per bundled spec\",\n"
        << "  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        double probe_ms_per_sample =
            rows[i].samples > 0
                ? rows[i].probe_seconds * 1000.0 / static_cast<double>(rows[i].samples)
                : 0.0;
        out << "    {\"scenario\": \"" << rows[i].scenario << "\", \"steps\": "
            << rows[i].steps << ", \"events\": " << rows[i].events
            << ", \"seconds\": " << util::format_double(rows[i].seconds, 6)
            << ", \"steps_per_sec\": "
            << static_cast<std::uint64_t>(rows[i].steps_per_sec)
            << ", \"probe_seconds\": " << util::format_double(rows[i].probe_seconds, 6)
            << ", \"samples\": " << rows[i].samples
            << ", \"probe_ms_per_sample\": "
            << util::format_double(probe_ms_per_sample, 3)
            << ", \"probe_rebuilds\": " << rows[i].probe_rebuilds
            << ", \"probe_patched_events\": " << rows[i].probe_patched_events
            << ", \"deletions\": " << rows[i].deletions
            << ", \"messages\": " << rows[i].messages
            << ", \"rounds\": " << rows[i].rounds
            << ", \"retries\": " << rows[i].retries
            << ", \"pass\": " << (rows[i].pass ? "true" : "false") << "}"
            << (i + 1 < rows.size() ? "," : "") << "\n";
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
    std::vector<std::string> spec_paths;
    std::string trace_path, json_path;
    std::size_t max_steps = 0;  // 0 = unlimited
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--trace") {
            if (++i >= args.size()) return usage();
            trace_path = args[i];
        } else if (args[i] == "--json") {
            if (++i >= args.size()) return usage();
            json_path = args[i];
        } else if (args[i] == "--max-steps") {
            if (++i >= args.size()) return usage();
            if (!parse_count(args[i], max_steps) || max_steps == 0) {
                std::cerr << "--max-steps needs a positive integer, got '" << args[i]
                          << "'\n";
                return 2;
            }
        } else if (is_flag(args[i])) {
            return unknown_flag(args[i]);
        } else {
            spec_paths.push_back(args[i]);
        }
    }
    if (spec_paths.empty()) return usage();
    if (!trace_path.empty() && spec_paths.size() != 1) {
        std::cerr << "--trace requires exactly one spec\n";
        return 2;
    }

    bool all_pass = true;
    std::vector<JsonRow> json_rows;
    for (const std::string& path : spec_paths) {
        auto spec = scenario::ScenarioSpec::parse_file(path);
        truncate_schedule(spec, max_steps);
        auto result = scenario::ScenarioRunner(spec).run();

        std::cout << "scenario " << spec.name << " (seed " << spec.seed << ", healer "
                  << spec.healer.kind << ", " << result.steps_done << " steps, "
                  << result.events.size() << " events, "
                  << util::format_double(result.steps_per_sec(), 0) << " steps/sec)\n\n";
        print_phases(result);
        std::cout << "\n";
        print_samples(result);
        std::cout << "probe snapshots: " << result.probe_rebuilds << " rebuilds, "
                  << result.probe_patched_events << " rows patched in place\n";
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
        json_rows.push_back({spec.name, result.steps_done, result.events.size(),
                             result.seconds, result.steps_per_sec(),
                             result.probe_seconds, result.samples.size(),
                             result.probe_rebuilds,
                             result.probe_patched_events,
                             result.final_sample.deletions,
                             result.final_sample.messages,
                             result.final_sample.rounds,
                             result.final_sample.retries, result.passed()});
    }
    if (!json_path.empty() && write_json(json_path, json_rows) != 0) return 1;
    return all_pass ? 0 : 1;
}

std::string json_escape(const std::string& text) {
    std::string out;
    for (char c : text) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out;
}

/// xheal-batch-v6: v5 without the per-row "probe_stall_seconds" field
/// (probes run inside each sample; stepping never waits on them). v5
/// dropped "shards"; v3 added the per-row distributed-protocol billing
/// columns (deletions, messages, rounds, retries — deterministic,
/// byte-stable across jobs values; 0 for non-message-passing healers). v2
/// added the report-level "jobs" field (worker pool size); v1 readers treat
/// a missing "jobs" as 1.
int write_batch_json(const std::string& path, const std::string& dir,
                     const std::string& healer_override, std::size_t jobs,
                     const std::vector<trace_tools::BatchOutcome>& rows) {
    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot open " << path << "\n";
        return 1;
    }
    out << "{\n  \"schema\": \"xheal-batch-v6\",\n"
        << "  \"note\": \"aggregated batch report: per-spec verdict, deterministic "
           "stream hash + final-graph fingerprint, and stepping/probe throughput; "
           "hashes and verdicts are reproducible bit-for-bit at any jobs count, "
           "timing fields are not\",\n"
        << "  \"dir\": \"" << json_escape(dir) << "\",\n"
        << "  \"healer_override\": \"" << json_escape(healer_override) << "\",\n"
        << "  \"jobs\": " << jobs << ",\n"
        << "  \"results\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const trace_tools::BatchOutcome& r = rows[i];
        double probe_ms_per_sample =
            r.samples > 0 ? r.probe_seconds * 1000.0 / static_cast<double>(r.samples)
                          : 0.0;
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
            << ", \"probe_ms_per_sample\": " << util::format_double(probe_ms_per_sample, 3)
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

int cmd_batch(const std::vector<std::string>& args) {
    std::string dir, json_path, healer_override;
    std::size_t max_steps = 0;
    std::size_t jobs = 1;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--json") {
            if (++i >= args.size()) return usage();
            json_path = args[i];
        } else if (args[i] == "--healer") {
            if (++i >= args.size()) return usage();
            healer_override = args[i];
        } else if (args[i] == "--max-steps") {
            if (++i >= args.size()) return usage();
            if (!parse_count(args[i], max_steps) || max_steps == 0) {
                std::cerr << "--max-steps needs a positive integer, got '" << args[i]
                          << "'\n";
                return 2;
            }
        } else if (args[i] == "--jobs") {
            if (++i >= args.size()) return usage();
            if (!parse_count(args[i], jobs) || jobs == 0) {
                std::cerr << "--jobs needs a positive integer, got '" << args[i]
                          << "'\n";
                return 2;
            }
        } else if (is_flag(args[i])) {
            return unknown_flag(args[i]);
        } else if (dir.empty()) {
            dir = args[i];
        } else {
            return usage();
        }
    }
    if (dir.empty()) return usage();

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
        double probe_ms = r.samples > 0
                              ? r.probe_seconds * 1000.0 / static_cast<double>(r.samples)
                              : 0.0;
        table.row()
            .add(r.file)
            .add(r.scenario)
            .add(r.healer)
            .add(r.pass ? "PASS" : "FAIL")
            .add(r.steps)
            .add(r.events)
            .add(util::format_double(r.steps_per_sec, 0))
            .add(util::format_double(probe_ms, 2))
            .add(scenario::hex64(r.trace_hash))
            .add(scenario::hex64(r.fingerprint));
    }
    std::cout << "\n";
    table.print(std::cout);
    std::cout << "VERDICT batch " << (all_pass ? "PASS" : "FAIL") << " — " << rows.size()
              << " specs from " << dir << "\n";

    if (!json_path.empty() &&
        write_batch_json(json_path, dir, healer_override, jobs, rows) != 0)
        return 1;
    return all_pass ? 0 : 1;
}

int cmd_replay(const std::vector<std::string>& args) {
    if (args.size() != 2) return usage();
    auto spec = scenario::ScenarioSpec::parse_file(args[0]);
    auto trace = scenario::read_trace_file(args[1]);
    if (trace.spec_hash != spec.content_hash())
        std::cout << "note: spec content hash differs from the trace header "
                     "(spec edited since recording?)\n";
    scenario::ScenarioRunner runner(spec);
    auto result = runner.replay(trace);

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
    std::vector<std::string> paths;
    std::size_t context = 3;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--context") {
            if (++i >= args.size() || !parse_count(args[i], context)) return usage();
        } else {
            paths.push_back(args[i]);
        }
    }
    if (paths.size() != 2) return usage();
    auto a = scenario::read_trace_file(paths[0]);
    auto b = scenario::read_trace_file(paths[1]);
    auto diff = trace_tools::diff_traces(a, b);
    std::cout << trace_tools::format_diff(diff, a, b, context);
    std::cout << "VERDICT diff " << (diff.identical() ? "PASS" : "FAIL") << " — "
              << paths[0] << " vs " << paths[1] << "\n";
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
    // Shrunk traces are replayed event-by-event by the TraceExecutor, which
    // flushes every repair immediately — batch grouping is a live-run
    // concept. Normalize `batch` to 1 so the reproducer spec's semantics
    // match the executor's, instead of promising a deferred-flush schedule
    // the shrunk event stream no longer encodes.
    for (auto& phase : spec.phases) phase.batch = 1;
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

/// Shrink a failing finding and write the reproducer pair; prints the
/// summary lines shared by fuzz and shrink.
void shrink_and_write(const scenario::ScenarioSpec& spec,
                      const std::vector<scenario::TraceEvent>& events,
                      const trace_tools::ShrinkOptions& options,
                      const std::string& out_base) {
    auto shrunk = trace_tools::shrink(spec, events, options);
    if (!shrunk.input_failed) {
        std::cout << "shrink: input no longer fails (flaky oracle?); skipping\n";
        return;
    }
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
}

int cmd_fuzz(const std::vector<std::string>& args) {
    std::vector<std::string> spec_paths;
    trace_tools::FuzzOptions options;
    std::string out_base = "fuzz-repro";
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--candidates") {
            if (++i >= args.size() || !parse_count(args[i], options.candidates))
                return usage();
        } else if (args[i] == "--seed") {
            std::size_t seed = 0;
            if (++i >= args.size() || !parse_count(args[i], seed)) return usage();
            options.seed = seed;
        } else if (args[i] == "--max-findings") {
            if (++i >= args.size() || !parse_count(args[i], options.max_findings))
                return usage();
        } else if (args[i] == "--lambda2-floor") {
            if (++i >= args.size() || !parse_finite(args[i], options.exec.lambda2_floor))
                return usage();
        } else if (args[i] == "--check-every") {
            if (++i >= args.size() || !parse_count(args[i], options.exec.check_every))
                return usage();
        } else if (args[i] == "--out") {
            if (++i >= args.size()) return usage();
            out_base = args[i];
        } else {
            spec_paths.push_back(args[i]);
        }
    }
    if (spec_paths.empty()) return usage();

    bool all_clean = true;
    for (const std::string& path : spec_paths) {
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
                shrink_and_write(target->spec, target->events, shrink_options,
                                 out_base + "-" + spec.name);
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
    std::vector<std::string> paths;
    trace_tools::ShrinkOptions options;
    std::string out_base = "repro";
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--out") {
            if (++i >= args.size()) return usage();
            out_base = args[i];
        } else if (args[i] == "--lambda2-floor") {
            if (++i >= args.size() || !parse_finite(args[i], options.exec.lambda2_floor))
                return usage();
        } else if (args[i] == "--check-every") {
            if (++i >= args.size() || !parse_count(args[i], options.exec.check_every))
                return usage();
        } else {
            paths.push_back(args[i]);
        }
    }
    if (paths.size() != 2) return usage();
    auto spec = scenario::ScenarioSpec::parse_file(paths[0]);
    auto trace = scenario::read_trace_file(paths[1]);
    derive_lambda2_floor(spec, options.exec);

    auto shrunk = trace_tools::shrink(spec, trace.events, options);
    if (!shrunk.input_failed) {
        std::cout << "shrink: the " << trace.events.size()
                  << "-event stream breaks no enabled invariant — nothing to shrink\n"
                  << "VERDICT shrink-" << spec.name << " FAIL — input does not fail\n";
        return 1;
    }
    std::cout << "shrunk " << shrunk.input_events << " -> " << shrunk.final_events()
              << " events in " << shrunk.tests_run << " executor runs\n";
    print_violations(shrunk.exec.violations);
    auto [scn, trace_path] = trace_tools::write_reproducer(
        out_base, reproducer_spec(spec, options.exec), shrunk);
    std::cout << "wrote reproducer " << scn << " + " << trace_path << "\n"
              << "VERDICT shrink-" << spec.name << " PASS — " << shrunk.final_events()
              << "-event reproducer\n";
    return 0;
}

int cmd_print(const std::vector<std::string>& args) {
    if (args.size() != 1) return usage();
    std::cout << scenario::ScenarioSpec::parse_file(args[0]).to_text();
    return 0;
}

int cmd_list() {
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
        if (command == "list") return cmd_list();
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
