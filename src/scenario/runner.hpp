// ScenarioRunner — the engine layer of the scenario subsystem. Owns the
// HealingSession, executes a spec's phased adversary schedule with
// per-step metric sampling, records the deterministic event trace, and can
// replay a recorded trace byte-for-byte from the same spec (trace.hpp).
// run() and replay() are two sources for the one event-apply core
// (stepper.hpp): replay walks run()'s step boundaries, so it reproduces
// run()'s flush points, phase stats and metric samples bitwise.
//
// A session is only ever built from its spec (build_session): the runner,
// the forensics executor and every bench construct it the same way, so a
// run's trace always names the spec that ran and replays from it.
//
// Randomness contract: one master Rng seeded with spec.seed drives topology
// construction and every adversary decision, in schedule order; a phase
// carrying its own `seed=` reseeds the master stream at phase entry
// (grammar v2 — its decisions become independent of the schedule prefix);
// the healer's private randomness comes from its own seed (defaulting to
// spec.seed); metric probes draw from an independent stream so changing
// the sampling cadence never perturbs the event trace.
#pragma once

#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "scenario/registry.hpp"
#include "scenario/spec.hpp"
#include "scenario/stepper.hpp"
#include "scenario/trace.hpp"
#include "spectral/probes.hpp"
#include "util/rng.hpp"

namespace xheal::scenario {

/// Build the session a spec describes: its component params checked
/// (check_params), topology drawn from `rng` (which must sit at the master
/// stream's start), healer seeded by the spec. `kappa`/`registry` receive
/// the healer capability handles. The one constructor path of
/// ScenarioRunner and trace_tools::TraceExecutor.
core::HealingSession build_session(const ScenarioSpec& spec, util::Rng& rng,
                                   std::size_t& kappa,
                                   const core::CloudRegistry*& registry);

/// Assemble a serializable trace from a spec plus a recorded event stream
/// and its hashes (shared by RunResult::to_trace and ExecResult::to_trace).
Trace make_trace(const ScenarioSpec& spec, std::vector<TraceEvent> events,
                 std::uint64_t trace_hash, std::uint64_t fingerprint);

/// One row of the sampled metric time series. Probe-gated metrics default
/// to NaN ("not sampled"); counters are always filled.
///
/// Sampling cadence contract: a sample is taken after every
/// `spec.sample_every`-th step, plus one *final* sample after the last step
/// (with the superset of probes any `expect` clause needs). sample_every = 0
/// means final-only: RunResult::samples holds exactly one entry, equal to
/// final_sample. A cadence point that coincides with the last step is
/// folded into the final sample rather than duplicated.
struct MetricSample {
    std::size_t step = 0;  ///< global step index (1-based: after this step)
    std::string phase;
    std::size_t nodes = 0;
    std::size_t edges = 0;
    std::size_t deletions = 0;   ///< cumulative
    std::size_t insertions = 0;  ///< cumulative
    /// Cumulative distributed-protocol billing (Theorem 5 accounting):
    /// messages sent, synchronous rounds, and loss-forced re-sends across
    /// all repairs so far. Always 0 for non-message-passing healers.
    std::size_t messages = 0;
    std::size_t rounds = 0;
    std::size_t retries = 0;
    std::size_t components = 0;  ///< probe: connected (0 = not sampled)
    std::size_t max_degree = 0;  ///< probe: degree
    double max_degree_ratio = std::nan("");   ///< probe: degree
    double mean_degree_ratio = std::nan("");  ///< probe: degree
    double worst_slack_ratio = std::nan("");  ///< probe: degree (Lemma 3 LHS)
    double expansion = std::nan("");          ///< probe: expansion
    double lambda2 = std::nan("");            ///< probe: lambda2
    double stretch = std::nan("");            ///< probe: stretch
    double probe_seconds = 0.0;               ///< wall time spent probing

    bool connected() const { return components == 1; }
};

struct RunResult {
    std::vector<MetricSample> samples;  ///< cadence samples + final
    MetricSample final_sample;          ///< always present (last of samples)
    std::vector<PhaseResult> phases;
    std::vector<TraceEvent> events;
    std::uint64_t trace_hash = 0;
    std::uint64_t fingerprint = 0;  ///< final healed graph
    std::size_t steps_done = 0;
    /// Adversary+healer stepping wall time, metric probes excluded.
    double seconds = 0.0;
    /// Wall time spent in metric probes across all samples (cadence +
    /// final), fork to join. Disjoint from `seconds`.
    double probe_seconds = 0.0;
    /// Always 0: probes run inside each sample, so stepping never waits on
    /// them. Kept only because the benchmark harness still reads it.
    double probe_stall_seconds = 0.0;
    /// Incremental probe accounting: full CSR snapshot rebuilds vs journal
    /// rows patched in place, summed over current + reference snapshots.
    std::uint64_t probe_rebuilds = 0;
    std::uint64_t probe_patched_events = 0;
    /// Id-compaction accounting (DESIGN.md decision 12): epochs closed, the
    /// largest slot address space ever held (max next_id, sampled per step
    /// before any compaction fires) and the largest live population. Their
    /// ratio is the `expect peak_slot_factor <=` bound — the O(live) memory
    /// guarantee of compacting runs.
    std::size_t compactions = 0;
    std::size_t peak_slot_count = 0;
    std::size_t live_high_water = 0;
    /// Expectation failures ("metric: wanted X, got Y"); empty = PASS.
    std::vector<std::string> failures;

    bool passed() const { return failures.empty(); }
    double steps_per_sec() const {
        return seconds > 0.0 ? static_cast<double>(steps_done) / seconds : 0.0;
    }
    /// The run as a serializable trace (header + events + hashes).
    Trace to_trace(const ScenarioSpec& spec) const;
};

class ScenarioRunner {
public:
    /// Build everything from the spec: topology (drawn from the master
    /// Rng), healer, session. Throws std::runtime_error on a component
    /// kind or param the registry does not know.
    explicit ScenarioRunner(const ScenarioSpec& spec);

    /// Execute the full phase schedule. Call once per runner.
    RunResult run();

    /// Re-apply a recorded event stream instead of consulting the
    /// adversary strategies. Walks steps up to max(total_steps, last event
    /// step + 1) with run()'s cadence and final samples, so a run's trace
    /// replays to run()'s samples, phase stats and slot accounting. Throws
    /// std::runtime_error on a spec/trace mismatch (a dead victim, a
    /// different insert id or live count, out-of-order steps, a step past
    /// both the schedule and the stream length). The caller compares the
    /// returned trace_hash and fingerprint against the trace's.
    RunResult replay(const Trace& trace);

    const ScenarioSpec& spec() const { return spec_; }
    const core::HealingSession& session() const { return session_; }
    /// Healer degree-overhead factor (1 for baselines).
    std::size_t kappa() const { return kappa_; }
    /// Cloud registry of xheal-family healers; nullptr otherwise.
    const core::CloudRegistry* registry() const { return registry_; }

private:
    /// The probes one sample runs: bit p set = Probe p runs.
    struct Probes {
        unsigned bits = 0;
        bool has(Probe p) const { return (bits >> static_cast<unsigned>(p)) & 1u; }
        void add(Probe p) { bits |= 1u << static_cast<unsigned>(p); }
    };

    static Probes parse_probes(const ScenarioSpec& spec);

    /// Take a sample of the probe-selected metrics. A sample that probes
    /// stretch is a three-task fork-join: this thread runs only the chain
    /// G sync -> lambda2 (solved ungated, its warm-start vector committed
    /// after the join iff the sample has one component); helper A syncs the
    /// reference snapshot, then sweeps the first half of the stretch
    /// sources; helper B runs components and the cheap probes, then sweeps
    /// the second half once A signals the reference is synced. Any other
    /// sample runs serially, gating lambda2 before it solves. Stretch
    /// sources are drawn before the fork, so every value is bitwise what a
    /// serial sample computes.
    MetricSample take_sample(std::size_t step, const std::string& phase,
                             const Probes& probes);

    /// The probes that read the live graph and reference directly (degree
    /// ratios, Lemma 3 slack, expansion).
    void probe_cheap(MetricSample& sample, const Probes& probes);

    /// The spec's probes plus the one each expectation metric needs
    /// (expectation_metrics).
    Probes final_probes() const;

    void evaluate_expectations(RunResult& result) const;

    /// Close one step of run() or replay(); a cadence boundary short of
    /// `last_step` takes a sample.
    void close_step(Stepper& stepper, std::size_t last_step, const Probes& probes,
                    RunResult& result);

    /// Stream end shared by run() and replay(): final flush, timings, the
    /// final sample, the stepper's stream and accounting, expectations.
    RunResult finish(Stepper& stepper, RunResult result,
                     std::chrono::steady_clock::time_point t0);

    ScenarioSpec spec_;
    util::Rng rng_;        ///< master: topology + adversary schedule
    util::Rng probe_rng_;  ///< independent: metric sampling only
    /// CSR snapshots of the healed graph and the reference, patched forward
    /// from the graph journals at each sample.
    spectral::IncrementalSnapshot snap_;
    spectral::IncrementalSnapshot ref_snap_;
    /// Sparse probe layer, reused across samples so steady-state probing
    /// does not allocate, one engine per task of the sample: this thread's
    /// (lambda2 and its warm-start chain), helper A's (its half of the
    /// stretch sweep) and the side work's (components, helper B's half).
    spectral::ProbeEngine probe_engine_;
    spectral::ProbeEngine sweep_engine_;
    spectral::ProbeEngine side_engine_;
    std::vector<graph::NodeId> stretch_sources_;
    std::size_t kappa_ = 1;
    const core::CloudRegistry* registry_ = nullptr;
    core::HealingSession session_;
    bool ran_ = false;
};

}  // namespace xheal::scenario
