// TraceExecutor — the engine under the trace-forensics tools (diff replay,
// fuzzing, shrinking): apply an *arbitrary* event stream to a fresh session
// built from a spec, best-effort, with the full invariant oracle suite
// running as the stream executes.
//
// ScenarioRunner::replay is strict — it throws on any spec/trace mismatch,
// which is correct for the determinism check but useless for mutated or
// partially-deleted streams. The executor instead *skips* infeasible events
// (deleting a dead node, inserting against no live neighbor) and records
// the events it actually applied as a canonical trace: steps renumbered
// 0..k-1, insert node ids as the session assigned them, neighbors filtered
// to the live set. Events go through the same apply core as run() and
// replay() (scenario/stepper.hpp): the schedule's phase of each canonical
// step sets the `batch=` flush grouping and the fault model, and the
// oracles run only while nothing is staged, so they see healed graphs.
// Because the session is built exactly the way ScenarioRunner builds it
// (master Rng at spec.seed draws the topology, the healer gets its own
// seed), a canonical trace replays byte-for-byte through `xheal_run replay`
// against the same spec — that is what makes shrunk reproducers standalone.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "scenario/spec.hpp"
#include "scenario/trace.hpp"

namespace xheal::trace_tools {

struct ExecOptions {
    /// Run the structural oracles after every `check_every`-th applied
    /// event (and always after the last one); a due check waits for the
    /// next flush of a batched phase. 0 = final check only.
    std::size_t check_every = 1;
    /// lambda2 floor for the spectral oracle; NaN disables. Checked after
    /// the final event only (it is the expensive oracle).
    double lambda2_floor = std::nan("");
    /// Check the Lemma 3 degree bound. Only meaningful for xheal-family
    /// healers — the executor drops it automatically when the spec's healer
    /// provides no cloud registry (baselines have unbounded degree).
    bool degree_bound = true;
    /// Stop applying events at the first finding (the tail of the stream
    /// cannot un-break an invariant, and shrinking wants the shortest
    /// failing prefix anyway).
    bool stop_on_violation = true;
    /// Never apply a delete at or below this population.
    std::size_t min_alive = 2;
};

/// One oracle finding, located in the canonical applied stream: the
/// violation was observed right after applying event `event_index` (the
/// last applied event for the final structural/spectral pass; 0 when the
/// stream applied nothing at all).
struct ExecViolation {
    std::size_t event_index = 0;
    std::string oracle;
    std::string message;
};

struct ExecResult {
    /// Canonical applied events (see file comment). A prefix of the input
    /// modulo skipped events when stop_on_violation hit.
    std::vector<scenario::TraceEvent> applied;
    std::uint64_t trace_hash = 0;   ///< FNV stream hash of `applied`
    std::uint64_t fingerprint = 0;  ///< final healed graph
    std::size_t skipped = 0;        ///< infeasible input events dropped
    std::vector<ExecViolation> violations;

    bool failed() const { return !violations.empty(); }
    /// The canonical stream as a serializable trace for the given spec
    /// (replays byte-for-byte through ScenarioRunner::replay).
    scenario::Trace to_trace(const scenario::ScenarioSpec& spec) const;
};

class TraceExecutor {
public:
    explicit TraceExecutor(ExecOptions options = {}) : options_(std::move(options)) {}

    const ExecOptions& options() const { return options_; }

    /// Build a fresh session and a fresh probe engine from `spec` and apply
    /// `events` best-effort under the oracles. A pure function of
    /// (spec, events): no state survives between calls, so the lambda2
    /// oracle never warm-starts from an earlier execution.
    ExecResult execute(const scenario::ScenarioSpec& spec,
                       const std::vector<scenario::TraceEvent>& events) const;

private:
    ExecOptions options_;
};

}  // namespace xheal::trace_tools
