// xbench — one pass of one benchmark workload, as a fresh process.
//
//   xbench --workload W --seed S [--smoke] [--trace DIR]
//
// Fills the template workloads/<W>.scn with a spec seed derived from S and
// the workload name (`--smoke` divides every phase's step count by 20),
// then runs it through the library's public API in one closed loop: parse
// + ScenarioRunner construction, then ScenarioRunner::run(), or for
// `forensics` run() + JSONL write + read-back + strict replay +
// TraceExecutor::execute. The set-up is then repeated for its median.
//
// Without --trace the library runs untouched. With --trace the stepper in
// traced.cpp reproduces run()/execute() from public layer calls, records a
// span per call, and writes DIR/<W>.spans.jsonl.
//
// Prints one JSON object on stdout: hashes and sample digests for the
// correctness checks, counts, and timings. run.py turns passes into
// metrics. Exit 0 when the pass completed (checks are run.py's), 2 on bad
// usage or any exception.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/runner.hpp"
#include "scenario/trace.hpp"
#include "spans.hpp"
#include "trace_tools/executor.hpp"
#include "traced.hpp"
#include "util/rng.hpp"

using namespace xheal;
using scenario::MetricSample;
using scenario::ScenarioSpec;
using Clock = std::chrono::steady_clock;

namespace {

constexpr std::size_t kSmokeDivisor = 20;
const std::vector<std::string> kWorkloads = {"probe-dex", "churn-repair", "lossy-dist",
                                             "forensics"};

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The spec seed: a pure function of the benchmark seed and workload name,
/// kept below 2^32 so every tool prints it exactly.
std::uint64_t spec_seed(std::uint64_t seed, const std::string& workload) {
    return util::splitmix64(seed ^ scenario::fnv1a64(workload)) & 0xffffffffull;
}

/// A phase's step count at smoke size; a phase never shrinks to nothing.
std::size_t smoke_steps(const std::string& value) {
    std::size_t n = std::stoull(value);
    return n == 0 ? 0 : std::max<std::size_t>(1, n / kSmokeDivisor);
}

std::string fill_template(const std::string& workload, std::uint64_t seed, bool smoke) {
    std::string path = std::string(XBENCH_WORKLOADS_DIR) + "/" + workload + ".scn";
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read workload template " + path);
    std::ostringstream out;
    std::string line;
    bool seeded = false;
    while (std::getline(in, line)) {
        if (line == "seed @SEED@") {
            line = "seed " + std::to_string(spec_seed(seed, workload));
            seeded = true;
        }
        if (smoke && line.rfind("phase ", 0) == 0) {
            std::istringstream tokens(line);
            std::string token, rebuilt;
            while (tokens >> token) {
                if (token.rfind("steps=", 0) == 0)
                    token = "steps=" + std::to_string(smoke_steps(token.substr(6)));
                if (!rebuilt.empty()) rebuilt += ' ';
                rebuilt += token;
            }
            line = rebuilt;
        }
        out << line << '\n';
    }
    if (!seeded) throw std::runtime_error(path + " has no `seed @SEED@` line");
    return out.str();
}

// ----- digests -----

struct Digest {
    std::uint64_t h = 0xcbf29ce484222325ull;
    void mix(std::uint64_t word) {
        for (int i = 0; i < 8; ++i) {
            h ^= (word >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
    void mix(double value) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof bits);
        mix(bits);
    }
};

/// Every integer field of every sample, the phase name and stretch: the
/// values pinned exactly in expected.json.
std::uint64_t pin_digest(const std::vector<MetricSample>& samples) {
    Digest d;
    for (const MetricSample& s : samples) {
        for (std::size_t v : {s.step, s.nodes, s.edges, s.deletions, s.insertions, s.messages,
                              s.rounds, s.retries, s.components, s.max_degree})
            d.mix(static_cast<std::uint64_t>(v));
        d.mix(scenario::fnv1a64(s.phase));
        d.mix(s.stretch);
    }
    return d.h;
}

/// Every field but the probe timing, bit for bit: traced == untraced.
std::uint64_t samples_digest(const std::vector<MetricSample>& samples) {
    Digest d;
    d.mix(pin_digest(samples));
    for (const MetricSample& s : samples)
        for (double v : {s.max_degree_ratio, s.mean_degree_ratio, s.worst_slack_ratio,
                         s.expansion, s.lambda2})
            d.mix(v);
    return d.h;
}

// ----- JSON output -----

std::string json_number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

class JsonObject {
public:
    JsonObject& raw(const std::string& key, const std::string& json) {
        if (!body_.empty()) body_ += ',';
        body_ += json_string(key);
        body_ += ':';
        body_ += json;
        return *this;
    }
    JsonObject& num(const std::string& key, double v) { return raw(key, json_number(v)); }
    JsonObject& count(const std::string& key, std::uint64_t v) {
        return raw(key, std::to_string(v));
    }
    JsonObject& str(const std::string& key, const std::string& v) {
        return raw(key, json_string(v));
    }
    JsonObject& flag(const std::string& key, bool v) { return raw(key, v ? "true" : "false"); }
    std::string text() const { return "{" + body_ + "}"; }

private:
    std::string body_;
};

template <typename T, typename F>
std::string json_array(const std::vector<T>& items, F render) {
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i != 0) out += ',';
        out += render(items[i]);
    }
    return out + "]";
}

std::string render_outcome(const xbench::Outcome& o) {
    JsonObject j;
    j.str("trace_hash", scenario::hex64(o.trace_hash))
        .str("fingerprint", scenario::hex64(o.fingerprint))
        .str("samples_digest", scenario::hex64(samples_digest(o.samples)))
        .str("pin_digest", scenario::hex64(pin_digest(o.samples)))
        .raw("lambda2", json_array(o.samples, [](const MetricSample& s) {
                 return json_number(s.lambda2);
             }))
        .raw("sample_probe_s", json_array(o.samples, [](const MetricSample& s) {
                 return json_number(s.probe_seconds);
             }))
        .count("deletions", o.deletions)
        .count("insertions", o.insertions)
        .count("skipped", o.skipped)
        .count("compactions", o.compactions)
        .count("edges_added", o.totals.edges_added)
        .count("combines", o.totals.combines)
        .count("clouds_touched", o.totals.clouds_touched)
        .count("messages", o.totals.messages)
        .count("rounds", o.totals.rounds)
        .count("retries", o.totals.retries)
        .count("csr_rebuilds", o.csr_rebuilds)
        .count("csr_rows_patched", o.csr_rows_patched)
        .raw("failures", json_array(o.failures, json_string));
    return j.text();
}

xbench::Outcome outcome_of(const scenario::RunResult& r) {
    xbench::Outcome o;
    o.events = r.events;
    o.trace_hash = r.trace_hash;
    o.fingerprint = r.fingerprint;
    o.samples = r.samples;
    for (const scenario::PhaseResult& p : r.phases) {
        o.deletions += p.deletions;
        o.insertions += p.insertions;
        o.skipped += p.skipped;
        o.totals.accumulate(p.totals);
    }
    o.compactions = r.compactions;
    o.peak_slot_count = r.peak_slot_count;
    o.live_high_water = r.live_high_water;
    o.failures = r.failures;
    return o;
}

struct Forensics {
    std::uint64_t exec_hash = 0;
    std::uint64_t exec_fingerprint = 0;
    std::size_t exec_applied = 0;
    std::size_t exec_skipped = 0;
    std::vector<std::string> findings;
    bool replay_match = false;
    bool roundtrip_equal = false;
    std::size_t trace_bytes = 0;
    std::size_t replay_events = 0;
};

std::string render_forensics(const Forensics& f) {
    JsonObject j;
    j.str("exec_hash", scenario::hex64(f.exec_hash))
        .str("exec_fingerprint", scenario::hex64(f.exec_fingerprint))
        .count("exec_applied", f.exec_applied)
        .count("exec_skipped", f.exec_skipped)
        .raw("findings", json_array(f.findings, json_string))
        .flag("replay_match", f.replay_match)
        .flag("roundtrip_equal", f.roundtrip_equal)
        .count("trace_bytes", f.trace_bytes);
    return j.text();
}

std::size_t count_compacts(const std::vector<scenario::TraceEvent>& events) {
    return static_cast<std::size_t>(
        std::count_if(events.begin(), events.end(), [](const scenario::TraceEvent& e) {
            return e.kind == scenario::TraceEvent::Kind::compact;
        }));
}

/// Adversary events applied across every pass over the stream: the run
/// itself, plus replay and executor passes for forensics.
std::size_t applied_events(const xbench::Outcome& o, const Forensics* f) {
    std::size_t n = o.deletions + o.insertions;
    if (f != nullptr) n += f->replay_events + f->exec_applied - count_compacts(o.events);
    return n;
}

std::string write_jsonl(const scenario::Trace& trace) {
    std::ostringstream out;
    scenario::write_trace(out, trace);
    return out.str();
}

/// Peak resident set of this process image. VmHWM rather than ru_maxrss:
/// Linux folds the forking parent's RSS into the child's ru_maxrss at exec,
/// so under a Python parent ru_maxrss never reads below the parent's size.
double peak_rss_mib() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

// ----- the untraced pass -----

double median(std::vector<double> values) {
    std::sort(values.begin(), values.end());
    std::size_t mid = values.size() / 2;
    return values.size() % 2 != 0 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

std::string untraced_pass(const std::string& workload, const std::string& text) {
    Clock::time_point start = Clock::now();
    auto spec = std::make_unique<ScenarioSpec>(ScenarioSpec::parse(text));
    auto runner = std::make_unique<scenario::ScenarioRunner>(*spec);
    const double setup_used = seconds_since(start);

    scenario::RunResult run = runner->run();
    std::unique_ptr<Forensics> forensics;
    double wall = 0.0;
    if (workload == "forensics") {
        forensics = std::make_unique<Forensics>();
        std::string jsonl = write_jsonl(run.to_trace(*spec));
        std::istringstream in(jsonl);
        scenario::Trace back = scenario::read_trace(in);
        scenario::RunResult replayed = scenario::ScenarioRunner(*spec).replay(back);
        trace_tools::ExecResult exec = trace_tools::TraceExecutor().execute(*spec, back.events);
        wall = seconds_since(start);
        // The checks below are outside the timed wall.
        forensics->roundtrip_equal = write_jsonl(back) == jsonl;
        forensics->replay_match = replayed.trace_hash == run.trace_hash &&
                                  replayed.fingerprint == run.fingerprint &&
                                  back.trace_hash == run.trace_hash &&
                                  back.fingerprint == run.fingerprint;
        forensics->replay_events = replayed.events.size() - count_compacts(replayed.events);
        forensics->exec_hash = exec.trace_hash;
        forensics->exec_fingerprint = exec.fingerprint;
        forensics->exec_applied = exec.applied.size();
        forensics->exec_skipped = exec.skipped;
        for (const trace_tools::ExecViolation& v : exec.violations)
            forensics->findings.push_back(v.oracle + ": " + v.message);
        forensics->trace_bytes = jsonl.size();
    } else {
        wall = seconds_since(start);
    }
    runner.reset();
    const double peak_rss = peak_rss_mib();

    // Set-up is timed again after the run (so the reps cannot shape the
    // pass's heap or its peak RSS) and the median reported: a set-up of a
    // small graph lasts under a millisecond and contention from other
    // tenants comes in bursts, so the reps span a quarter second.
    constexpr std::size_t kMinReps = 3, kMaxReps = 1000;
    constexpr double kRepBudgetSeconds = 0.25;
    std::vector<double> setups = {setup_used};
    double spent = setup_used;
    while (setups.size() < kMinReps || (spent < kRepBudgetSeconds && setups.size() < kMaxReps)) {
        Clock::time_point t0 = Clock::now();
        ScenarioSpec again = ScenarioSpec::parse(text);
        scenario::ScenarioRunner built(again);
        setups.push_back(seconds_since(t0));
        spent += setups.back();
    }

    xbench::Outcome o = outcome_of(run);
    JsonObject j;
    j.num("wall_s", wall).raw("outcome", render_outcome(o));
    if (forensics) j.raw("forensics", render_forensics(*forensics));
    return j.count("applied_events", applied_events(o, forensics.get()))
        .num("setup_s", median(setups))
        .num("setup_used_s", setup_used)
        .count("setup_reps", setups.size())
        .num("stepping_s", run.seconds)
        .num("probe_s", run.probe_seconds)
        .num("probe_stall_s", run.probe_stall_seconds)
        .num("peak_rss_mib", peak_rss)
        .text();
}

// ----- the traced pass -----

std::string traced_pass(const std::string& workload, const std::string& text,
                        const std::string& dir) {
    const ScenarioSpec sizing = ScenarioSpec::parse(text);
    std::size_t events_bound = 0;
    for (const scenario::PhaseSpec& p : sizing.phases)
        events_bound += p.steps * (p.burst + p.insert_burst + 1);
    std::size_t samples_bound =
        sizing.sample_every == 0 ? 1 : sizing.total_steps() / sizing.sample_every + 1;
    // Up to five spans per event and eight per sample; forensics doubles
    // the event count (record + execute).
    xbench::SpanRecorder rec(10 * events_bound + 8 * samples_bound + 64);

    std::unique_ptr<Forensics> forensics;
    std::string jsonl;
    scenario::Trace back;
    xbench::Outcome o;
    double wall = 0.0;
    {
        xbench::SpanRecorder::Scope root(rec, "bench.pass");
        Clock::time_point start = Clock::now();
        std::unique_ptr<ScenarioSpec> spec;
        {
            xbench::SpanRecorder::Scope span(rec, "scenario.parse");
            spec = std::make_unique<ScenarioSpec>(ScenarioSpec::parse(text));
        }
        o = xbench::traced_run(*spec, rec);
        if (workload == "forensics") {
            forensics = std::make_unique<Forensics>();
            {
                xbench::SpanRecorder::Scope span(rec, "trace_tools.write");
                jsonl = write_jsonl(
                    scenario::make_trace(*spec, o.events, o.trace_hash, o.fingerprint));
            }
            {
                xbench::SpanRecorder::Scope span(rec, "trace_tools.read");
                std::istringstream in(jsonl);
                back = scenario::read_trace(in);
            }
            scenario::RunResult replayed;
            {
                xbench::SpanRecorder::Scope span(rec, "scenario.replay");
                replayed = scenario::ScenarioRunner(*spec).replay(back);
            }
            xbench::ExecOutcome exec = xbench::traced_execute(*spec, back.events, rec);
            forensics->replay_match = replayed.trace_hash == o.trace_hash &&
                                      replayed.fingerprint == o.fingerprint;
            forensics->replay_events = replayed.events.size() - count_compacts(replayed.events);
            forensics->exec_hash = exec.trace_hash;
            forensics->exec_fingerprint = exec.fingerprint;
            forensics->exec_applied = exec.applied;
            forensics->exec_skipped = exec.skipped;
            forensics->findings = exec.findings;
            forensics->trace_bytes = jsonl.size();
        }
        wall = seconds_since(start);
    }
    if (forensics) forensics->roundtrip_equal = write_jsonl(back) == jsonl;
    std::filesystem::create_directories(dir);
    rec.write_jsonl(dir + "/" + workload + ".spans.jsonl");

    JsonObject spans;
    for (const auto& [name, t] : rec.totals()) {
        JsonObject s;
        s.count("calls", t.calls).num("total_s", t.total_s).num("self_s", t.self_s);
        spans.raw(name, s.text());
    }
    JsonObject j;
    j.num("wall_s", wall)
        .raw("outcome", render_outcome(o))
        .count("applied_events", applied_events(o, forensics.get()))
        .count("span_count", rec.spans().size())
        .raw("spans", spans.text());
    if (forensics) j.raw("forensics", render_forensics(*forensics));
    return j.num("peak_rss_mib", peak_rss_mib()).text();
}

int usage(const std::string& why) {
    std::cerr << "xbench: " << why << "\n"
              << "usage: xbench --workload W --seed S [--smoke] [--trace DIR]\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    std::string workload, trace_dir;
    std::uint64_t seed = 0;
    bool have_seed = false, smoke = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) throw std::runtime_error(arg + " needs a value");
            return argv[++i];
        };
        try {
            if (arg == "--workload") workload = value();
            else if (arg == "--seed") {
                std::string s = value();
                if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
                    return usage("--seed takes a non-negative integer");
                seed = std::stoull(s);
                have_seed = true;
            } else if (arg == "--smoke") smoke = true;
            else if (arg == "--trace") trace_dir = value();
            else return usage("unknown argument " + arg);
        } catch (const std::exception& e) {
            return usage(e.what());
        }
    }
    if (std::find(kWorkloads.begin(), kWorkloads.end(), workload) == kWorkloads.end())
        return usage("unknown workload '" + workload + "'");
    if (!have_seed) return usage("--seed is required");

    try {
        std::string text = fill_template(workload, seed, smoke);
        std::string body = trace_dir.empty() ? untraced_pass(workload, text)
                                             : traced_pass(workload, text, trace_dir);
        JsonObject head;
        head.str("workload", workload)
            .count("seed", seed)
            .count("spec_seed", spec_seed(seed, workload))
            .str("size", smoke ? "smoke" : "full")
            .flag("traced", !trace_dir.empty())
            .str("compiler", __VERSION__)
            .str("build_type", XBENCH_BUILD_TYPE);
        std::string h = head.text();
        std::cout << h.substr(0, h.size() - 1) << "," << body.substr(1) << std::endl;
    } catch (const std::exception& e) {
        std::cerr << "xbench: " << workload << ": " << e.what() << "\n";
        return 2;
    }
    return 0;
}
