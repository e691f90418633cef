#include "scenario/stepper.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace xheal::scenario {

namespace {

std::runtime_error diverged(std::size_t step, const std::string& what) {
    return std::runtime_error("replay diverged: step " + std::to_string(step) + " " + what);
}

}  // namespace

Stepper::Stepper(const ScenarioSpec& spec, core::HealingSession& session,
                 spectral::ProbeEngine& engine, spectral::IncrementalSnapshot* snap,
                 spectral::IncrementalSnapshot* ref_snap)
    : spec_(spec),
      session_(session),
      engine_(engine),
      snap_(snap),
      ref_snap_(ref_snap),
      phases_(spec.phases.size()),
      // Slot accounting starts at the initial topology: a delete-heavy
      // first phase must not hide the starting population.
      peak_slot_count_(session.current().next_id()),
      live_high_water_(session.current().node_count()) {
    if (spec.phases.empty()) throw std::runtime_error("spec: needs at least one 'phase'");
    for (std::size_t i = 0; i < phases_.size(); ++i) {
        phases_[i].name = spec.phases[i].name;
        phases_[i].steps = spec.phases[i].steps;
    }
}

void Stepper::begin_step() {
    while (next_phase_ < spec_.phases.size() && next_start_ <= step_) {
        flush();  // batches never span phases
        current_ = next_phase_++;
        next_start_ += phase().steps;
        // The phase's lossy-network model (lossless where unset). A no-op
        // for local healers; never touches any rng stream.
        session_.healer().set_network_faults(core::NetFaults{phase().drop, phase().latency});
    }
}

void Stepper::apply(TraceEvent event) {
    event.step = step_;
    const graph::Graph& g = session_.current();
    PhaseResult& stats = phases_[current_];
    if (event.kind == TraceEvent::Kind::remove) {
        graph::NodeId victim = event.node;
        if (!g.has_node(victim))
            throw diverged(step_, "deletes node " + std::to_string(victim) +
                                      " which is not alive");
        stats.victim_degree.add(static_cast<double>(session_.reference().degree(victim)));
        record(event);
        // Batched phases stage the reconnection work; one connect_units
        // serves up to `batch` deletions.
        core::RepairReport report;
        if (phase().batch > 1) {
            report = session_.stage_delete(victim);
            if (++staged_ >= phase().batch) flush();
        } else {
            report = session_.delete_node(victim);
        }
        stats.totals.accumulate(report);
        stats.rounds.add(static_cast<double>(report.rounds));
        ++stats.deletions;
        ++step_events_;
    } else if (event.kind == TraceEvent::Kind::insert) {
        graph::NodeId id = g.next_id();
        if (event.node == graph::invalid_node) event.node = id;
        if (event.node != id)
            throw diverged(step_, "inserted node " + std::to_string(id) +
                                      ", trace recorded " + std::to_string(event.node));
        flush();  // inserted nodes land on a healed graph
        record(event);
        session_.insert_node(events_.back().neighbors);
        ++stats.insertions;
        ++step_events_;
    } else {
        // Id-compaction epoch (DESIGN.md decision 12): the step's slot
        // accounting precedes the renumbering, so the peak reflects the
        // waste the epoch actually reached.
        note_slots();
        flush();  // compaction requires a fully healed graph
        auto live = static_cast<graph::NodeId>(g.node_count());
        if (event.node == graph::invalid_node) event.node = live;
        if (event.node != live)
            throw diverged(step_, "compact recorded " + std::to_string(event.node) +
                                      " live nodes, have " + std::to_string(live));
        record(event);
        const std::vector<graph::NodeId>& old_to_new = session_.compact();
        // Snapshot rows hold retired numbering; the lambda2 warm start is
        // permuted so the next solve still warm-starts.
        if (snap_ != nullptr) snap_->invalidate();
        if (ref_snap_ != nullptr) ref_snap_->invalidate();
        engine_.on_compact(old_to_new);
        ++compactions_;
    }
}

bool Stepper::end_step() {
    // Every slot of the step's event budget (insert_burst forced arrivals,
    // then `burst` delete-or-insert draws) that produced no event was
    // skipped (population floor, no pick).
    std::size_t budget = phase().insert_burst + phase().burst;
    phases_[current_].skipped += budget - std::min(budget, step_events_);
    step_events_ = 0;
    note_slots();
    ++step_;
    if (spec_.sample_every == 0 || step_ % spec_.sample_every != 0) return false;
    flush();  // probes and oracles observe a healed graph
    return true;
}

void Stepper::flush() {
    if (staged_ == 0) return;
    phases_[current_].totals.accumulate(session_.flush_staged());
    staged_ = 0;
}

void Stepper::note_slots() {
    live_high_water_ = std::max(live_high_water_, session_.current().node_count());
    peak_slot_count_ = std::max<std::size_t>(peak_slot_count_, session_.current().next_id());
}

void Stepper::record(TraceEvent& event) {
    hasher_.add(event);
    events_.push_back(std::move(event));
}

}  // namespace xheal::scenario
