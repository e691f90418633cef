// ScenarioRunner — the engine layer of the scenario subsystem. Owns the
// HealingSession, executes a spec's phased adversary schedule with
// per-step metric sampling, records the deterministic event trace, and can
// replay a recorded trace byte-for-byte from the same spec (trace.hpp).
//
// Randomness contract: one master Rng seeded with spec.seed drives topology
// construction (spec-built constructor) and every adversary decision, in
// schedule order; a phase carrying its own `seed=` reseeds the master
// stream at phase entry (grammar v2 — its decisions become independent of
// the schedule prefix); the healer's private randomness comes from its own
// seed (defaulting to spec.seed); metric probes draw from an independent
// stream so changing the sampling cadence never perturbs the event trace.
#pragma once

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "scenario/registry.hpp"
#include "scenario/spec.hpp"
#include "scenario/trace.hpp"
#include "spectral/probes.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace xheal::scenario {

/// Build the session a spec describes: topology drawn from `rng` (which
/// must sit at the position construction expects — the master stream's
/// start), healer seeded by the spec. `prebuilt` (optional) replaces the
/// spec topology; `kappa`/`registry` receive the healer capability
/// handles. Shared by ScenarioRunner and trace_tools::TraceExecutor — the
/// byte-for-byte replay guarantee of recorded traces and shrunk
/// reproducers rests on every consumer building sessions identically.
core::HealingSession build_session(const ScenarioSpec& spec, util::Rng& rng,
                                   graph::Graph* prebuilt, std::size_t& kappa,
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

/// Accounting for one schedule phase.
struct PhaseResult {
    std::string name;
    std::size_t steps = 0;
    std::size_t deletions = 0;
    std::size_t insertions = 0;
    std::size_t skipped = 0;  ///< events dropped (population floor / no pick)
    core::RepairReport totals;
    util::RunningStats rounds;          ///< per-deletion protocol rounds
    util::RunningStats victim_degree;   ///< black degree of victims at deletion
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
    /// Rng), healer, session.
    explicit ScenarioRunner(const ScenarioSpec& spec);

    /// Ported benches construct workloads with bespoke shared generators;
    /// this overload adopts a prebuilt initial graph and ignores
    /// spec.topology. The master Rng starts fresh at spec.seed.
    ScenarioRunner(const ScenarioSpec& spec, graph::Graph initial);

    /// Execute the full phase schedule. Call once per runner.
    RunResult run();

    /// Re-apply a recorded event stream instead of consulting the
    /// adversary strategies; phase/metric accounting works as in run().
    /// Throws std::runtime_error if an insert re-issues a different node id
    /// than the trace recorded (spec/trace mismatch). The caller compares
    /// the returned trace_hash and fingerprint against the trace's.
    RunResult replay(const Trace& trace);

    const ScenarioSpec& spec() const { return spec_; }
    const core::HealingSession& session() const { return session_; }
    /// Healer degree-overhead factor (1 for baselines).
    std::size_t kappa() const { return kappa_; }
    /// Cloud registry of xheal-family healers; nullptr otherwise.
    const core::CloudRegistry* registry() const { return registry_; }

private:
    struct Probes {
        bool connected = false;
        bool degree = false;
        bool expansion = false;
        bool lambda2 = false;
        bool stretch = false;
    };

    static Probes parse_probes(const ScenarioSpec& spec);

    /// Take a sample of the probe-selected metrics as a fixed fork-join:
    /// a helper task syncs the reference snapshot and runs the stretch BFS
    /// sweeps while this thread runs components, the cheap probes and the
    /// warm-started lambda2. Stretch sources are drawn before the fork, so
    /// every value is bitwise what a serial sample computes.
    MetricSample take_sample(std::size_t step, const std::string& phase,
                             const Probes& probes);

    /// The probes that read the live graph and reference directly (degree
    /// ratios, Lemma 3 slack, expansion).
    void probe_cheap(MetricSample& sample, const Probes& probes);

    /// Id compaction: drop both snapshots (their rows hold retired
    /// numbering) and permute the lambda2 warm-start vector.
    void compact_probes(const std::vector<graph::NodeId>& old_to_new);

    /// Probes the final sample needs beyond the spec's list: one per
    /// expectation kind.
    Probes final_probes() const;

    void evaluate_expectations(RunResult& result) const;

    ScenarioSpec spec_;
    util::Rng rng_;        ///< master: topology + adversary schedule
    util::Rng probe_rng_;  ///< independent: metric sampling only
    /// CSR snapshots of the healed graph and the reference, patched forward
    /// from the graph journals at each sample.
    spectral::IncrementalSnapshot snap_;
    spectral::IncrementalSnapshot ref_snap_;
    /// Sparse probe layer, reused across samples so steady-state probing
    /// does not allocate: this thread's engine (components, lambda2 and its
    /// warm-start chain) and the stretch helper's (its own BFS scratch).
    spectral::ProbeEngine probe_engine_;
    spectral::ProbeEngine stretch_engine_;
    std::vector<graph::NodeId> stretch_sources_;
    double probe_seconds_ = 0.0;  ///< accumulated across take_sample calls
    std::size_t kappa_ = 1;
    const core::CloudRegistry* registry_ = nullptr;
    core::HealingSession session_;
    bool ran_ = false;
};

}  // namespace xheal::scenario
