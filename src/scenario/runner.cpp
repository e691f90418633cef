#include "scenario/runner.hpp"

#include <chrono>
#include <cmath>
#include <future>
#include <span>
#include <stdexcept>

#include "core/metrics.hpp"
#include "spectral/expansion.hpp"
#include "util/table.hpp"

namespace xheal::scenario {

namespace {

/// Independent probe stream: decorrelated from the master seed so probe
/// cadence never perturbs adversary decisions.
constexpr std::uint64_t probe_salt = 0x70726f6265735full;

}  // namespace

core::HealingSession build_session(const ScenarioSpec& spec, util::Rng& rng,
                                   std::size_t& kappa,
                                   const core::CloudRegistry*& registry) {
    check_params(spec);
    graph::Graph initial = make_topology(spec.topology, rng);
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

ScenarioRunner::ScenarioRunner(const ScenarioSpec& spec)
    : spec_(spec),
      rng_(spec.seed),
      probe_rng_(spec.seed ^ probe_salt),
      session_(build_session(spec_, rng_, kappa_, registry_)) {
    session_.enable_graph_journals(session_.default_journal_limit());
}

ScenarioRunner::Probes ScenarioRunner::parse_probes(const ScenarioSpec& spec) {
    // check_params, run by the constructor, has rejected any unknown name.
    Probes probes;
    for (const std::string& name : spec.probes) probes.add(find_probe(name).value());
    return probes;
}

ScenarioRunner::Probes ScenarioRunner::final_probes() const {
    Probes probes = parse_probes(spec_);
    for (const Expectation& e : spec_.expectations)
        if (auto probe = expectation_metric(e.kind).probe) probes.add(*probe);
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
    if (probes.has(Probe::connected) || probes.has(Probe::lambda2) ||
        probes.has(Probe::stretch))
        snap_.sync(g);
    const spectral::CsrGraph& csr = snap_.csr();

    // The side work: components (lambda2's connectivity gate needs the
    // count too) and the probes that read the graphs directly.
    std::size_t components = 0;
    auto side = [&] {
        if (probes.has(Probe::connected) || probes.has(Probe::lambda2))
            components = side_engine_.component_count_csr(csr);
        probe_cheap(sample, probes);
    };
    if (!probes.has(Probe::stretch)) {
        // Serial, gate first: a disconnected sample never solves.
        side();
        if (probes.has(Probe::lambda2))
            sample.lambda2 = probe_engine_.lambda2_commit(
                csr, components, components == 1 ? probe_engine_.lambda2_solve(csr) : 0.0);
    } else {
        // Three tasks. This thread solves lambda2 ungated while helper A
        // syncs G' and sweeps the first half of the stretch sources, and
        // helper B runs the side work, waits for G', then sweeps the second
        // half. The sources are drawn before the fork; the gate is applied
        // after the join. Until then every task only reads csr and the two
        // graphs and writes its own engine (A also ref_snap_, which B reads
        // only after A's signal).
        spectral::ProbeEngine::sample_stretch_sources(csr, spec_.stretch_samples, probe_rng_,
                                                      stretch_sources_);
        std::span<const graph::NodeId> sources(stretch_sources_);
        const auto first_half = sources.first((sources.size() + 1) / 2);
        const auto second_half = sources.subspan(first_half.size());
        // Released on every path, so a failed sync rethrows in B too.
        std::promise<void> ref_ready;
        std::future<void> ref_synced = ref_ready.get_future();
        std::future<double> first =
            std::async(std::launch::async, [&, ready = std::move(ref_ready)]() mutable {
                try {
                    ref_snap_.sync(ref);
                    ready.set_value();
                } catch (...) {
                    ready.set_exception(std::current_exception());
                    throw;
                }
                return sweep_engine_.stretch_over_sources(csr, ref_snap_.csr(), first_half);
            });
        std::future<double> second =
            std::async(std::launch::async, [&, synced = std::move(ref_synced)]() mutable {
                side();
                synced.get();
                return side_engine_.stretch_over_sources(csr, ref_snap_.csr(), second_half);
            });
        double solved = probes.has(Probe::lambda2) ? probe_engine_.lambda2_solve(csr) : 0.0;
        // Join; get() rethrows a helper's exception. The max is order-free.
        sample.stretch = std::max(first.get(), second.get());
        if (probes.has(Probe::lambda2))
            sample.lambda2 = probe_engine_.lambda2_commit(csr, components, solved);
    }
    if (probes.has(Probe::connected)) sample.components = components;
    auto probe_end = std::chrono::steady_clock::now();
    sample.probe_seconds = std::chrono::duration<double>(probe_end - probe_start).count();
    return sample;
}

void ScenarioRunner::probe_cheap(MetricSample& sample, const Probes& probes) {
    const graph::Graph& g = session_.current();
    if (probes.has(Probe::degree)) {
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
    if (probes.has(Probe::expansion)) sample.expansion = spectral::edge_expansion_estimate(g);
}

void ScenarioRunner::evaluate_expectations(RunResult& result) const {
    const MetricSample& fin = result.final_sample;
    for (const Expectation& e : spec_.expectations) {
        // What is specific to each metric: its measured value and how the
        // failure text shows it (blank = the shortest text of got).
        double got = 0.0;
        std::string shown;
        // A Theorem 5 bill per deletion. Over no deletions it reads NaN and
        // fails: the protocol it guards never ran.
        auto per_delete = [&](std::size_t billed) {
            if (fin.deletions == 0) {
                shown = "no deletions";
                return std::nan("");
            }
            return static_cast<double>(billed) / static_cast<double>(fin.deletions);
        };
        switch (e.kind) {
            case Expectation::Kind::connected:
                if (!fin.connected())
                    result.failures.push_back("connected: final graph has " +
                                              std::to_string(fin.components) +
                                              " components");
                continue;
            case Expectation::Kind::max_degree_ratio_le: got = fin.max_degree_ratio; break;
            case Expectation::Kind::expansion_ge: got = fin.expansion; break;
            case Expectation::Kind::lambda2_ge: got = fin.lambda2; break;
            case Expectation::Kind::stretch_le: got = fin.stretch; break;
            case Expectation::Kind::nodes_ge: got = static_cast<double>(fin.nodes); break;
            case Expectation::Kind::peak_slot_factor_le:
                got = result.live_high_water == 0
                          ? 0.0
                          : static_cast<double>(result.peak_slot_count) /
                                static_cast<double>(result.live_high_water);
                shown = util::format_shortest(got) + " (" +
                        std::to_string(result.peak_slot_count) + " slots / " +
                        std::to_string(result.live_high_water) + " live high-water)";
                break;
            case Expectation::Kind::messages_per_delete_le: got = per_delete(fin.messages); break;
            case Expectation::Kind::rounds_per_delete_le: got = per_delete(fin.rounds); break;
            case Expectation::Kind::retries_per_delete_le: got = per_delete(fin.retries); break;
        }
        // A NaN reading (probe not run) fails either comparison.
        const ExpectationMetric& metric = expectation_metric(e.kind);
        bool held = metric.op == "<=" ? got <= e.value : got >= e.value;
        if (!held)
            result.failures.push_back(std::string(metric.name) + ": wanted " +
                                      std::string(metric.op) + " " +
                                      util::format_shortest(e.value) + ", got " +
                                      (shown.empty() ? util::format_shortest(got) : shown));
    }
}

RunResult ScenarioRunner::run() {
    if (ran_) throw std::runtime_error("ScenarioRunner::run: already executed");
    ran_ = true;

    Stepper stepper(spec_, session_, probe_engine_, &snap_, &ref_snap_);
    Probes cadence_probes = parse_probes(spec_);
    RunResult result;
    auto t0 = std::chrono::steady_clock::now();

    for (std::size_t phase_index = 0; phase_index < spec_.phases.size(); ++phase_index) {
        const PhaseSpec& phase = spec_.phases[phase_index];
        // Per-phase seed (grammar v2): reseed the master stream at phase
        // entry, making the phase's adversary decisions independent of the
        // schedule prefix (sweeps may reorder phases without perturbation).
        if (phase.seed.has_value()) rng_ = util::Rng(*phase.seed);
        auto deleter = make_phase_deleter(phase, registry_);
        auto inserter = make_inserter(phase.inserter);
        // The stepper stamps the step, insert ids and compact live counts.
        auto emit = [&](TraceEvent::Kind kind, graph::NodeId node = graph::invalid_node,
                        std::vector<graph::NodeId> neighbors = {}) {
            stepper.apply({kind, 0, static_cast<std::uint32_t>(phase_index), node,
                           std::move(neighbors)});
        };
        auto try_insert = [&]() {
            auto neighbors = inserter->pick_neighbors(session_, rng_);
            if (!neighbors.empty())
                emit(TraceEvent::Kind::insert, graph::invalid_node, std::move(neighbors));
        };

        for (std::size_t step = 0; step < phase.steps; ++step) {
            stepper.begin_step();
            // Flash-crowd modeling (grammar v2): insert_burst forced
            // arrivals lead every step, before the regular event budget.
            // Slots that produce no event count as skipped (Stepper).
            for (std::size_t i = 0; i < phase.insert_burst; ++i) try_insert();

            double fraction = phase.delete_fraction_at(step);
            for (std::size_t b = 0; b < phase.burst; ++b) {
                bool want_delete;
                if (fraction >= 1.0) want_delete = true;
                else if (fraction <= 0.0) want_delete = false;
                else want_delete = rng_.chance(fraction);

                graph::NodeId victim = graph::invalid_node;
                if (want_delete && session_.current().node_count() > phase.min_nodes)
                    victim = deleter->pick(session_, rng_);
                // Blocked or victimless deletes in a mixed phase fall
                // through to an insert; deletion-only phases just skip.
                if (victim != graph::invalid_node) emit(TraceEvent::Kind::remove, victim);
                else if (fraction < 1.0) try_insert();
            }
            // Id-compaction epoch (`compact=K`, DESIGN.md decision 12):
            // close the epoch once the issued id space has outgrown the
            // live population K-fold. The canonical trace event precedes
            // the renumbering; every id in later events is new-numbering.
            const graph::Graph& g = session_.current();
            // Divided rather than multiplied, so a huge K cannot wrap.
            if (phase.compact != 0 && g.next_id() > g.node_count() &&
                g.next_id() / std::max<std::size_t>(g.node_count(), 1) >= phase.compact)
                emit(TraceEvent::Kind::compact);
            close_step(stepper, spec_.total_steps(), cadence_probes, result);
        }
    }
    return finish(stepper, std::move(result), t0);
}

RunResult ScenarioRunner::replay(const Trace& trace) {
    if (ran_) throw std::runtime_error("ScenarioRunner::replay: already executed");
    ran_ = true;

    // Walk the step boundaries run() walked, past the schedule when the
    // stream is longer (an executor's canonical stream numbers its events
    // 0..n-1), so flush points, phase entries and samples are run()'s.
    const std::vector<TraceEvent>& events = trace.events;
    if (!events.empty() && events.back().step >= std::max(spec_.total_steps(), events.size()))
        throw std::runtime_error("replay diverged: the last event's step " +
                                 std::to_string(events.back().step) +
                                 " lies past both the schedule and the stream");
    std::size_t last_step = events.empty() ? spec_.total_steps()
                                           : std::max<std::size_t>(spec_.total_steps(),
                                                                   events.back().step + 1);

    Stepper stepper(spec_, session_, probe_engine_, &snap_, &ref_snap_);
    Probes cadence_probes = parse_probes(spec_);
    RunResult result;
    auto t0 = std::chrono::steady_clock::now();
    std::size_t next = 0;
    for (std::size_t step = 0; step < last_step; ++step) {
        stepper.begin_step();
        for (; next < events.size() && events[next].step == step; ++next)
            stepper.apply(events[next]);
        close_step(stepper, last_step, cadence_probes, result);
    }
    if (next != events.size())
        throw std::runtime_error("replay diverged: event " + std::to_string(next) +
                                 " at step " + std::to_string(events[next].step) +
                                 " is out of step order");
    return finish(stepper, std::move(result), t0);
}

void ScenarioRunner::close_step(Stepper& stepper, std::size_t last_step,
                                const Probes& probes, RunResult& result) {
    // The final sample (superset probes) covers the last step.
    if (stepper.end_step() && stepper.step() != last_step)
        result.samples.push_back(take_sample(stepper.step(), stepper.phase().name, probes));
}

RunResult ScenarioRunner::finish(Stepper& stepper, RunResult result,
                                 std::chrono::steady_clock::time_point t0) {
    stepper.finish();
    auto t1 = std::chrono::steady_clock::now();
    // Cadence samples taken inside the timed loop are subtracted from
    // `seconds`, so steps_per_sec measures adversary+healer stepping only.
    double loop_probe_seconds = 0.0;
    for (const MetricSample& sample : result.samples) loop_probe_seconds += sample.probe_seconds;
    result.seconds = std::chrono::duration<double>(t1 - t0).count() - loop_probe_seconds;
    if (result.seconds < 0.0) result.seconds = 0.0;  // clock-resolution guard
    result.steps_done = stepper.step();

    result.final_sample = take_sample(stepper.step(), spec_.phases.back().name, final_probes());
    result.samples.push_back(result.final_sample);
    result.probe_seconds = loop_probe_seconds + result.final_sample.probe_seconds;
    result.phases = std::move(stepper.phases());
    result.events = std::move(stepper.events());
    result.trace_hash = stepper.trace_hash();
    result.compactions = stepper.compactions();
    result.peak_slot_count = stepper.peak_slot_count();
    result.live_high_water = stepper.live_high_water();
    result.probe_rebuilds = snap_.rebuilds() + ref_snap_.rebuilds();
    result.probe_patched_events = snap_.patched_events() + ref_snap_.patched_events();
    result.fingerprint = graph_fingerprint(session_.current());
    evaluate_expectations(result);
    return result;
}

}  // namespace xheal::scenario
