#include "scenario/runner.hpp"

#include <chrono>
#include <future>
#include <optional>
#include <stdexcept>

#include "core/metrics.hpp"
#include "graph/algorithms.hpp"
#include "spectral/expansion.hpp"
#include "spectral/laplacian.hpp"

namespace xheal::scenario {

namespace {

/// Independent probe stream: decorrelated from the master seed so probe
/// cadence never perturbs adversary decisions.
constexpr std::uint64_t probe_salt = 0x70726f6265735full;

}  // namespace

core::HealingSession build_session(const ScenarioSpec& spec, util::Rng& rng,
                                   graph::Graph* prebuilt, std::size_t& kappa,
                                   const core::CloudRegistry*& registry) {
    graph::Graph initial = prebuilt != nullptr ? std::move(*prebuilt)
                                               : make_topology(spec.topology, rng);
    HealerHandle handle = make_healer(spec.healer, spec.seed);
    kappa = handle.kappa;
    registry = handle.registry;
    return core::HealingSession(std::move(initial), std::move(handle.healer));
}

Trace make_trace(const ScenarioSpec& spec, std::vector<TraceEvent> events,
                 std::uint64_t trace_hash, std::uint64_t fingerprint) {
    Trace trace;
    trace.scenario = spec.name;
    trace.seed = spec.seed;
    trace.spec_hash = spec.content_hash();
    trace.events = std::move(events);
    trace.trace_hash = trace_hash;
    trace.fingerprint = fingerprint;
    return trace;
}

Trace RunResult::to_trace(const ScenarioSpec& spec) const {
    return make_trace(spec, events, trace_hash, fingerprint);
}

namespace {

/// Journal capacity for incremental probe snapshots: generous enough that
/// inter-sample churn rarely overflows (overflow just costs one rebuild).
std::size_t journal_limit_for(const core::HealingSession& session) {
    return std::max<std::size_t>(4096, session.current().node_count() * 2);
}

}  // namespace

ScenarioRunner::ScenarioRunner(const ScenarioSpec& spec)
    : spec_(spec),
      rng_(spec.seed),
      probe_rng_(spec.seed ^ probe_salt),
      session_(build_session(spec_, rng_, nullptr, kappa_, registry_)) {
    session_.enable_graph_journals(journal_limit_for(session_));
}

ScenarioRunner::ScenarioRunner(const ScenarioSpec& spec, graph::Graph initial)
    : spec_(spec),
      rng_(spec.seed),
      probe_rng_(spec.seed ^ probe_salt),
      session_(build_session(spec_, rng_, &initial, kappa_, registry_)) {
    session_.enable_graph_journals(journal_limit_for(session_));
}

ScenarioRunner::Probes ScenarioRunner::parse_probes(const ScenarioSpec& spec) {
    Probes probes;
    for (const std::string& name : spec.probes) {
        if (name == "connected") probes.connected = true;
        else if (name == "degree") probes.degree = true;
        else if (name == "expansion") probes.expansion = true;
        else if (name == "lambda2") probes.lambda2 = true;
        else if (name == "stretch") probes.stretch = true;
        else throw std::runtime_error("unknown probe: '" + name + "'");
    }
    return probes;
}

ScenarioRunner::Probes ScenarioRunner::final_probes() const {
    Probes probes = parse_probes(spec_);
    for (const Expectation& e : spec_.expectations) {
        switch (e.kind) {
            case Expectation::Kind::connected: probes.connected = true; break;
            case Expectation::Kind::max_degree_ratio_le: probes.degree = true; break;
            case Expectation::Kind::expansion_ge: probes.expansion = true; break;
            case Expectation::Kind::lambda2_ge: probes.lambda2 = true; break;
            case Expectation::Kind::stretch_le: probes.stretch = true; break;
            case Expectation::Kind::nodes_ge: break;
            case Expectation::Kind::peak_slot_factor_le: break;
        }
    }
    return probes;
}

MetricSample ScenarioRunner::take_sample(std::size_t step, const std::string& phase,
                                         const Probes& probes) {
    const graph::Graph& g = session_.current();
    MetricSample sample;
    sample.step = step;
    sample.phase = phase;
    sample.nodes = g.node_count();
    sample.edges = g.edge_count();
    sample.deletions = session_.deletions();
    sample.insertions = session_.insertions();
    sample.messages = session_.totals().messages;
    sample.rounds = session_.totals().rounds;
    sample.retries = session_.totals().retries;
    auto probe_start = std::chrono::steady_clock::now();
    // One CSR snapshot serves every probe of this sample (g cannot mutate
    // inside take_sample). The graph journals carry the structural delta
    // since the previous sample, so the snapshots are patched forward
    // instead of rebuilt (each mutation is consumed exactly once).
    const graph::Graph& ref = session_.reference();
    snap_.note(g, g.journal(), g.journal_overflowed());
    ref_snap_.note(ref, ref.journal(), ref.journal_overflowed());
    g.clear_journal();
    ref.clear_journal();
    if (probes.connected || probes.lambda2 || probes.stretch) snap_.sync(g);

    // Fork: the stretch sweep is the one heavy probe independent of the
    // others, so it runs on a helper task with its own engine while this
    // thread keeps the shared scratch and the lambda2 warm-start chain.
    // Both sides only read snap_ and the two graphs until the join.
    std::future<double> stretch;
    if (probes.stretch) {
        spectral::ProbeEngine::sample_stretch_sources(snap_.csr(), spec_.stretch_samples,
                                                      probe_rng_, stretch_sources_);
        stretch = std::async(std::launch::async, [this, &ref] {
            ref_snap_.sync(ref);
            return stretch_engine_.stretch_over_sources(snap_.csr(), ref_snap_.csr(),
                                                        stretch_sources_);
        });
    }
    if (probes.connected)
        sample.components = probe_engine_.component_count_csr(snap_.csr());
    probe_cheap(sample, probes);
    if (probes.lambda2)
        sample.lambda2 =
            probes.connected
                ? probe_engine_.lambda2_csr_counted(snap_.csr(), sample.components)
                : probe_engine_.lambda2_csr(snap_.csr());
    if (probes.stretch) sample.stretch = stretch.get();  // join; rethrows
    auto probe_end = std::chrono::steady_clock::now();
    sample.probe_seconds = std::chrono::duration<double>(probe_end - probe_start).count();
    probe_seconds_ += sample.probe_seconds;
    return sample;
}

void ScenarioRunner::probe_cheap(MetricSample& sample, const Probes& probes) {
    const graph::Graph& g = session_.current();
    if (probes.degree) {
        sample.max_degree = g.max_degree();
        auto increase = core::degree_increase(g, session_.reference());
        sample.max_degree_ratio = increase.max_ratio;
        sample.mean_degree_ratio = increase.mean_ratio;
        // Lemma 3 witness: max over alive v of (deg_G(v) - 2k) / deg_G'(v).
        double worst = 0.0;
        double two_kappa = 2.0 * static_cast<double>(kappa_);
        for (graph::NodeId v : g.nodes()) {
            std::size_t dref = session_.reference().degree(v);
            if (dref == 0) continue;
            double slack = static_cast<double>(g.degree(v)) - two_kappa;
            worst = std::max(worst, slack / static_cast<double>(dref));
        }
        sample.worst_slack_ratio = worst;
    }
    if (probes.expansion) sample.expansion = spectral::edge_expansion_estimate(g);
}

void ScenarioRunner::compact_probes(const std::vector<graph::NodeId>& old_to_new) {
    snap_.invalidate();
    ref_snap_.invalidate();
    probe_engine_.on_compact(old_to_new);
}

void ScenarioRunner::evaluate_expectations(RunResult& result) const {
    const MetricSample& fin = result.final_sample;
    auto fmt = [](double v) {
        std::string s = std::to_string(v);
        return s;
    };
    for (const Expectation& e : spec_.expectations) {
        switch (e.kind) {
            case Expectation::Kind::connected:
                if (!fin.connected())
                    result.failures.push_back("connected: final graph has " +
                                              std::to_string(fin.components) +
                                              " components");
                break;
            case Expectation::Kind::max_degree_ratio_le:
                if (!(fin.max_degree_ratio <= e.value))
                    result.failures.push_back("max_degree_ratio: wanted <= " + fmt(e.value) +
                                              ", got " + fmt(fin.max_degree_ratio));
                break;
            case Expectation::Kind::expansion_ge:
                if (!(fin.expansion >= e.value))
                    result.failures.push_back("expansion: wanted >= " + fmt(e.value) +
                                              ", got " + fmt(fin.expansion));
                break;
            case Expectation::Kind::lambda2_ge:
                if (!(fin.lambda2 >= e.value))
                    result.failures.push_back("lambda2: wanted >= " + fmt(e.value) +
                                              ", got " + fmt(fin.lambda2));
                break;
            case Expectation::Kind::stretch_le:
                if (!(fin.stretch <= e.value))
                    result.failures.push_back("stretch: wanted <= " + fmt(e.value) +
                                              ", got " + fmt(fin.stretch));
                break;
            case Expectation::Kind::nodes_ge:
                if (!(static_cast<double>(fin.nodes) >= e.value))
                    result.failures.push_back("nodes: wanted >= " + fmt(e.value) + ", got " +
                                              std::to_string(fin.nodes));
                break;
            case Expectation::Kind::peak_slot_factor_le: {
                double factor = result.live_high_water == 0
                                    ? 0.0
                                    : static_cast<double>(result.peak_slot_count) /
                                          static_cast<double>(result.live_high_water);
                if (!(factor <= e.value))
                    result.failures.push_back(
                        "peak_slot_factor: wanted <= " + fmt(e.value) + ", got " +
                        fmt(factor) + " (" + std::to_string(result.peak_slot_count) +
                        " slots / " + std::to_string(result.live_high_water) +
                        " live high-water)");
                break;
            }
        }
    }
}

RunResult ScenarioRunner::run() {
    if (ran_) throw std::runtime_error("ScenarioRunner::run: already executed");
    ran_ = true;

    RunResult result;
    TraceHasher hasher;
    Probes cadence_probes = parse_probes(spec_);

    // Slot accounting starts at the initial topology: a delete-heavy first
    // phase must not make the high-water marks miss the starting population.
    // replay() seeds identically (compaction_test asserts the equality).
    result.live_high_water = session_.current().node_count();
    result.peak_slot_count = session_.current().next_id();

    // Time spent in cadence samples inside the timed loop — subtracted from
    // `seconds` so steps_per_sec measures adversary+healer stepping only.
    double loop_probe_seconds = 0.0;
    auto t0 = std::chrono::steady_clock::now();

    std::size_t global_step = 0;
    for (std::size_t phase_index = 0; phase_index < spec_.phases.size(); ++phase_index) {
        const PhaseSpec& phase = spec_.phases[phase_index];
        PhaseResult stats;
        stats.name = phase.name;
        stats.steps = phase.steps;
        // Per-phase seed (grammar v2): reseed the master stream at phase
        // entry, making the phase's adversary decisions independent of the
        // schedule prefix (sweeps may reorder phases without perturbation).
        if (phase.seed.has_value()) rng_ = util::Rng(*phase.seed);
        // Phase-level network faults (`drop=` / `latency=`): applied (or
        // cleared back to the healer's base model) at every phase entry.
        // No-op for non-message-passing healers; never touches any rng
        // stream, so replay stays byte-identical.
        session_.healer().set_network_faults(
            core::NetFaults{phase.drop, phase.latency});
        auto deleter = make_phase_deleter(phase, registry_);
        auto inserter = make_inserter(phase.inserter);

        // Batched adversary (`batch=k`): deletions stage their reconnection
        // work; one flush per k deletions (or at a sample / successful
        // insert / phase end) runs a single connect_units for the batch.
        std::size_t staged = 0;
        auto flush_batch = [&]() {
            if (staged == 0) return;
            stats.totals.accumulate(session_.flush_staged());
            staged = 0;
        };

        auto try_insert = [&](std::size_t step) {
            auto neighbors = inserter->pick_neighbors(session_, rng_);
            if (neighbors.empty()) return false;
            // Inserted nodes land on a healed graph (replay mirrors this
            // flush point at every recorded insert event).
            flush_batch();
            TraceEvent event;
            event.kind = TraceEvent::Kind::insert;
            event.step = step;
            event.phase = static_cast<std::uint32_t>(phase_index);
            event.node = session_.insert_node(neighbors);
            event.neighbors = std::move(neighbors);
            ++stats.insertions;
            hasher.add(event);
            result.events.push_back(std::move(event));
            return true;
        };

        for (std::size_t step = 0; step < phase.steps; ++step) {
            // Flash-crowd modeling (grammar v2): insert_burst forced
            // arrivals lead every step, before the regular event budget.
            for (std::size_t i = 0; i < phase.insert_burst; ++i)
                if (!try_insert(global_step)) ++stats.skipped;

            double fraction = phase.delete_fraction_at(step);
            for (std::size_t b = 0; b < phase.burst; ++b) {
                bool want_delete;
                if (fraction >= 1.0) want_delete = true;
                else if (fraction <= 0.0) want_delete = false;
                else want_delete = rng_.chance(fraction);

                bool did_event = false;
                if (want_delete && session_.current().node_count() > phase.min_nodes) {
                    graph::NodeId victim = deleter->pick(session_, rng_);
                    if (victim != graph::invalid_node) {
                        TraceEvent event;
                        event.kind = TraceEvent::Kind::remove;
                        event.step = global_step;
                        event.phase = static_cast<std::uint32_t>(phase_index);
                        event.node = victim;
                        stats.victim_degree.add(
                            static_cast<double>(session_.reference().degree(victim)));
                        auto report = phase.batch > 1 ? session_.stage_delete(victim)
                                                      : session_.delete_node(victim);
                        if (phase.batch > 1) {
                            ++staged;
                            if (staged >= phase.batch) flush_batch();
                        }
                        stats.totals.accumulate(report);
                        stats.rounds.add(static_cast<double>(report.rounds));
                        ++stats.deletions;
                        hasher.add(event);
                        result.events.push_back(std::move(event));
                        did_event = true;
                    }
                }
                // Blocked or victimless deletes in a mixed phase fall
                // through to an insert; deletion-only phases just skip.
                if (!did_event && fraction < 1.0) did_event = try_insert(global_step);
                if (!did_event) ++stats.skipped;
            }
            // Slot address-space accounting, sampled before any compaction
            // so the peak reflects the waste the epoch actually reached.
            result.live_high_water =
                std::max(result.live_high_water, session_.current().node_count());
            result.peak_slot_count = std::max<std::size_t>(
                result.peak_slot_count, session_.current().next_id());
            // Id-compaction epoch (`compact=K`, DESIGN.md decision 12):
            // close the epoch once the issued id space has outgrown the
            // live population K-fold. The canonical trace event precedes
            // the renumbering; every id in later events is new-numbering.
            if (phase.compact != 0 &&
                session_.current().next_id() > session_.current().node_count() &&
                session_.current().next_id() >=
                    phase.compact *
                        std::max<std::size_t>(session_.current().node_count(), 1)) {
                flush_batch();  // compaction requires a fully healed graph
                TraceEvent event;
                event.kind = TraceEvent::Kind::compact;
                event.step = global_step;
                event.phase = static_cast<std::uint32_t>(phase_index);
                event.node =
                    static_cast<graph::NodeId>(session_.current().node_count());
                hasher.add(event);
                result.events.push_back(std::move(event));
                compact_probes(session_.compact());
                ++result.compactions;
            }
            ++global_step;
            // The final sample (superset probes) covers the last step.
            if (spec_.sample_every != 0 && global_step % spec_.sample_every == 0 &&
                global_step != spec_.total_steps()) {
                flush_batch();  // probes always observe a healed graph
                result.samples.push_back(
                    take_sample(global_step, phase.name, cadence_probes));
                loop_probe_seconds += result.samples.back().probe_seconds;
            }
        }
        flush_batch();  // batches never span phases
        result.phases.push_back(std::move(stats));
    }

    auto t1 = std::chrono::steady_clock::now();
    // The final sample is taken after this point.
    result.seconds =
        std::chrono::duration<double>(t1 - t0).count() - loop_probe_seconds;
    if (result.seconds < 0.0) result.seconds = 0.0;  // clock-resolution guard
    result.steps_done = global_step;

    std::string last_phase = spec_.phases.empty() ? "" : spec_.phases.back().name;
    result.final_sample = take_sample(global_step, last_phase, final_probes());
    result.samples.push_back(result.final_sample);
    result.probe_rebuilds = snap_.rebuilds() + ref_snap_.rebuilds();
    result.probe_patched_events = snap_.patched_events() + ref_snap_.patched_events();
    result.probe_seconds = probe_seconds_;
    result.trace_hash = hasher.value();
    result.fingerprint = graph_fingerprint(session_.current());
    evaluate_expectations(result);
    return result;
}

RunResult ScenarioRunner::replay(const Trace& trace) {
    if (ran_) throw std::runtime_error("ScenarioRunner::replay: already executed");
    ran_ = true;

    RunResult result;
    TraceHasher hasher;
    result.phases.resize(spec_.phases.size());
    for (std::size_t i = 0; i < spec_.phases.size(); ++i) {
        result.phases[i].name = spec_.phases[i].name;
        result.phases[i].steps = spec_.phases[i].steps;
    }

    // Slot accounting mirrors run() exactly: seed from the initial topology,
    // then sample at step boundaries only (run() samples once per step, after
    // the step's events and before any compaction — per-event sampling here
    // would catch mid-step population spikes run() never observes and inflate
    // live_high_water). compaction_test asserts run/replay equality.
    result.live_high_water = session_.current().node_count();
    result.peak_slot_count = session_.current().next_id();
    auto note_accounting = [&]() {
        result.live_high_water =
            std::max(result.live_high_water, session_.current().node_count());
        result.peak_slot_count = std::max<std::size_t>(result.peak_slot_count,
                                                       session_.current().next_id());
    };

    auto t0 = std::chrono::steady_clock::now();

    // Batched phases: replay takes no cadence samples, but the *grouping* of
    // staged deletions into flushes feeds connect_units different unit sets
    // (and hence a different healer rng trajectory), so every flush point of
    // run() is reproduced: batch-full, before each insert event, phase
    // change, any crossed sample boundary, and end-of-stream. An event
    // recorded at step s precedes the cadence sample taken after step s iff
    // s+1 is a sample multiple, so a boundary is crossed between events at
    // steps p < c iff (p/se + 1)*se <= c.
    std::size_t staged = 0;
    std::uint32_t staged_phase = 0;
    auto flush_batch = [&]() {
        if (staged == 0) return;
        core::RepairReport report = session_.flush_staged();
        if (staged_phase < result.phases.size())
            result.phases[staged_phase].totals.accumulate(report);
        staged = 0;
    };
    std::size_t prev_step = 0;
    bool have_prev = false;

    // Mirror run()'s phase-entry fault hook: the fault model switches with
    // the phase the replayed event belongs to. Applying it lazily (at the
    // first event of a phase rather than at entry of event-less phases) is
    // equivalent — the model only matters while messages are in flight.
    std::optional<std::uint32_t> faults_phase;
    auto apply_phase_faults = [&](std::uint32_t phase_index) {
        if (faults_phase.has_value() && *faults_phase == phase_index) return;
        faults_phase = phase_index;
        if (phase_index < spec_.phases.size()) {
            const PhaseSpec& phase = spec_.phases[phase_index];
            session_.healer().set_network_faults(
                core::NetFaults{phase.drop, phase.latency});
        }
    };

    for (const TraceEvent& event : trace.events) {
        // A later step begins: every event of prev_step is applied, which is
        // run()'s per-step accounting point (before any boundary flush —
        // flush order matters only if a flush could move the counts, and
        // run() samples pre-flush too).
        if (have_prev && event.step > prev_step) note_accounting();
        if (staged > 0) {
            bool crossed_sample =
                spec_.sample_every != 0 && have_prev &&
                (prev_step / spec_.sample_every + 1) * spec_.sample_every <= event.step;
            if (crossed_sample || event.phase != staged_phase) flush_batch();
        }
        // After any cross-phase flush (run() flushes at phase end under the
        // outgoing phase's fault model), switch to this event's model.
        apply_phase_faults(event.phase);
        PhaseResult* stats =
            event.phase < result.phases.size() ? &result.phases[event.phase] : nullptr;
        std::size_t batch =
            event.phase < spec_.phases.size() ? spec_.phases[event.phase].batch : 1;
        if (event.kind == TraceEvent::Kind::remove) {
            if (!session_.current().has_node(event.node))
                throw std::runtime_error(
                    "replay diverged: step " + std::to_string(event.step) + " deletes node " +
                    std::to_string(event.node) + " which is not alive");
            if (stats != nullptr)
                stats->victim_degree.add(
                    static_cast<double>(session_.reference().degree(event.node)));
            core::RepairReport report;
            if (batch > 1) {
                report = session_.stage_delete(event.node);
                staged_phase = event.phase;
                ++staged;
                if (staged >= batch) flush_batch();
            } else {
                report = session_.delete_node(event.node);
            }
            if (stats != nullptr) {
                stats->totals.accumulate(report);
                stats->rounds.add(static_cast<double>(report.rounds));
                ++stats->deletions;
            }
        } else if (event.kind == TraceEvent::Kind::insert) {
            flush_batch();  // run() flushes before every successful insert
            graph::NodeId got = session_.insert_node(event.neighbors);
            if (got != event.node)
                throw std::runtime_error("replay diverged: step " + std::to_string(event.step) +
                                         " inserted node " + std::to_string(got) +
                                         ", trace recorded " + std::to_string(event.node));
            if (stats != nullptr) ++stats->insertions;
        } else {
            // Epoch boundary: replay compacts where the trace says run()
            // did — no condition re-evaluation, the recorded event is the
            // canonical decision. `live` doubles as a divergence check.
            flush_batch();  // run() flushes before compacting
            // run() samples the step's accounting before the compact fires
            // (the peak must reflect the waste the epoch actually reached);
            // at this point every pre-compact event of the step is applied.
            note_accounting();
            if (session_.current().node_count() != event.node)
                throw std::runtime_error(
                    "replay diverged: compact at step " + std::to_string(event.step) +
                    " recorded " + std::to_string(event.node) + " live nodes, have " +
                    std::to_string(session_.current().node_count()));
            compact_probes(session_.compact());
            ++result.compactions;
        }
        hasher.add(event);
        prev_step = event.step;
        have_prev = true;
        result.steps_done = event.step + 1;
    }
    note_accounting();  // run()'s accounting point for the final step
    flush_batch();

    auto t1 = std::chrono::steady_clock::now();
    result.seconds = std::chrono::duration<double>(t1 - t0).count();
    result.events = trace.events;

    std::string last_phase = spec_.phases.empty() ? "" : spec_.phases.back().name;
    result.final_sample = take_sample(result.steps_done, last_phase, final_probes());
    result.samples.push_back(result.final_sample);
    result.probe_rebuilds = snap_.rebuilds() + ref_snap_.rebuilds();
    result.probe_patched_events = snap_.patched_events() + ref_snap_.patched_events();
    result.probe_seconds = probe_seconds_;
    result.trace_hash = hasher.value();
    result.fingerprint = graph_fingerprint(session_.current());
    evaluate_expectations(result);
    return result;
}

}  // namespace xheal::scenario
