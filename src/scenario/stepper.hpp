// Stepper — the one event-apply core of the scenario engine, fed by three
// sources: ScenarioRunner::run() (adversary picks), ScenarioRunner::replay()
// (a recorded trace, strictly) and trace_tools::TraceExecutor (any stream,
// best-effort). It owns everything that decides the healed graph or the
// accounting, so the three paths cannot drift apart: applying delete,
// staged delete (`batch=k`), insert and compact events plus the stream
// hash; the flush points (batch full, before an insert or a compaction, at
// a cadence boundary, at a phase change, at stream end); phase entry with
// its network fault model; per-phase stats and slot accounting; and
// compaction with its probe-state remap.
//
// A source drives each global step as begin_step(), apply() per event,
// end_step(). The schedule decides the phase of a step (steps past it
// belong to the last phase); an event's recorded `phase` field is carried
// into the stream unchanged.
#pragma once

#include <cstdint>
#include <vector>

#include "core/session.hpp"
#include "scenario/spec.hpp"
#include "scenario/trace.hpp"
#include "spectral/probes.hpp"
#include "util/stats.hpp"

namespace xheal::scenario {

/// Accounting for one schedule phase.
struct PhaseResult {
    std::string name;
    std::size_t steps = 0;
    std::size_t deletions = 0;
    std::size_t insertions = 0;
    std::size_t skipped = 0;  ///< event slots (insert_burst + burst per step) left empty
    core::RepairReport totals;
    util::RunningStats rounds;          ///< per-deletion protocol rounds
    util::RunningStats victim_degree;   ///< black degree of victims at deletion
};

class Stepper {
public:
    /// `engine` and the snapshots (when given) are the probe state a
    /// compaction renumbers.
    Stepper(const ScenarioSpec& spec, core::HealingSession& session,
            spectral::ProbeEngine& engine,
            spectral::IncrementalSnapshot* snap = nullptr,
            spectral::IncrementalSnapshot* ref_snap = nullptr);

    /// Enter every phase that starts at or before the current step.
    void begin_step();

    /// Apply one event at the current step and append it to the stream,
    /// stamping its step. An insert or compact whose `node` is invalid_node
    /// gets the assigned id / live count; any other value is a recorded one
    /// that must match, as must a delete's victim being alive — else
    /// std::runtime_error ("replay diverged"). The event is recorded before
    /// it applies, so a healer exception leaves it at the stream's end.
    void apply(TraceEvent event);

    /// Close the current step (skip and slot accounting). Returns true at a
    /// cadence boundary, after flushing: the caller's sample point.
    bool end_step();

    /// Stream end: flush any staged deletions.
    void finish() { flush(); }

    std::size_t step() const { return step_; }
    /// Deletions staged since the last flush (0 = the graph is healed).
    std::size_t staged() const { return staged_; }
    const PhaseSpec& phase() const { return spec_.phases[current_]; }

    std::vector<PhaseResult>& phases() { return phases_; }
    std::vector<TraceEvent>& events() { return events_; }
    std::uint64_t trace_hash() const { return hasher_.value(); }
    std::size_t compactions() const { return compactions_; }
    std::size_t peak_slot_count() const { return peak_slot_count_; }
    std::size_t live_high_water() const { return live_high_water_; }

private:
    void flush();
    void note_slots();
    void record(TraceEvent& event);

    const ScenarioSpec& spec_;
    core::HealingSession& session_;
    spectral::ProbeEngine& engine_;
    spectral::IncrementalSnapshot* snap_;
    spectral::IncrementalSnapshot* ref_snap_;

    std::size_t step_ = 0;
    std::size_t current_ = 0;      ///< phase of the current step
    std::size_t next_phase_ = 0;   ///< first phase not yet entered
    std::size_t next_start_ = 0;   ///< its first step
    std::size_t staged_ = 0;
    std::size_t step_events_ = 0;  ///< deletes + inserts in the current step
    std::vector<PhaseResult> phases_;
    std::vector<TraceEvent> events_;
    TraceHasher hasher_;
    std::size_t compactions_ = 0;
    std::size_t peak_slot_count_ = 0;
    std::size_t live_high_water_ = 0;
};

}  // namespace xheal::scenario
