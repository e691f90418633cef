#include "traced.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/invariants.hpp"
#include "core/metrics.hpp"
#include "core/session.hpp"
#include "scenario/registry.hpp"
#include "spectral/probes.hpp"
#include "util/rng.hpp"

namespace xbench {

using namespace xheal;
using scenario::Expectation;
using scenario::MetricSample;
using scenario::ScenarioSpec;
using scenario::TraceEvent;
using Scope = SpanRecorder::Scope;

namespace {

/// Must equal `probe_salt` in scenario/runner.cpp: the probe stream's seed
/// is spec.seed ^ salt. The selftest fails if the two ever drift apart.
constexpr std::uint64_t kProbeSalt = 0x70726f6265735full;

/// Forwards every Healer call to the real healer, timing the repair entry
/// points as `core.repair` spans.
class TimedHealer final : public core::Healer {
public:
    TimedHealer(std::unique_ptr<core::Healer> inner, SpanRecorder& rec,
                const std::int64_t& request)
        : inner_(std::move(inner)), rec_(rec), request_(request) {}

    std::string_view name() const override { return inner_->name(); }
    void on_insert(graph::Graph& g, graph::NodeId v) override {
        Scope span(rec_, "core.repair", request_);
        inner_->on_insert(g, v);
    }
    core::RepairReport on_delete(graph::Graph& g, graph::NodeId v) override {
        Scope span(rec_, "core.repair", request_);
        return inner_->on_delete(g, v);
    }
    core::RepairReport on_delete_staged(graph::Graph& g, graph::NodeId v) override {
        Scope span(rec_, "core.repair", request_);
        return inner_->on_delete_staged(g, v);
    }
    core::RepairReport flush_staged(graph::Graph& g) override {
        Scope span(rec_, "core.repair", request_);
        return inner_->flush_staged(g);
    }
    std::size_t staged_count() const override { return inner_->staged_count(); }
    void on_compact(graph::Graph& g, const std::vector<graph::NodeId>& old_to_new) override {
        inner_->on_compact(g, old_to_new);
    }
    void check_consistency(const graph::Graph& g) const override {
        inner_->check_consistency(g);
    }
    void set_network_faults(const core::NetFaults& faults) override {
        inner_->set_network_faults(faults);
    }

private:
    std::unique_ptr<core::Healer> inner_;
    SpanRecorder& rec_;
    const std::int64_t& request_;
};

/// scenario::build_session with the healer wrapped and each half timed.
core::HealingSession build_timed_session(const ScenarioSpec& spec, util::Rng& rng,
                                         SpanRecorder& rec, const std::int64_t& request,
                                         std::size_t& kappa,
                                         const core::CloudRegistry*& registry) {
    std::optional<graph::Graph> initial;
    {
        Scope span(rec, "workload.topology");
        initial.emplace(scenario::make_topology(spec.topology, rng));
    }
    Scope span(rec, "core.session_init");
    scenario::HealerHandle handle = scenario::make_healer(spec.healer, spec.seed);
    kappa = handle.kappa;
    registry = handle.registry;
    return core::HealingSession(
        std::move(*initial),
        std::make_unique<TimedHealer>(std::move(handle.healer), rec, request));
}

struct Probes {
    bool connected = false;
    bool degree = false;
    bool lambda2 = false;
    bool stretch = false;
};

Probes cadence_probes(const ScenarioSpec& spec) {
    Probes p;
    for (const std::string& name : spec.probes) {
        if (name == "connected") p.connected = true;
        else if (name == "degree") p.degree = true;
        else if (name == "lambda2") p.lambda2 = true;
        else if (name == "stretch") p.stretch = true;
        else throw std::runtime_error("traced stepper: unsupported probe '" + name + "'");
    }
    return p;
}

Probes final_probes(const ScenarioSpec& spec) {
    Probes p = cadence_probes(spec);
    for (const Expectation& e : spec.expectations) {
        if (e.kind == Expectation::Kind::connected) p.connected = true;
        if (e.kind == Expectation::Kind::lambda2_ge) p.lambda2 = true;
    }
    return p;
}

class Stepper {
public:
    Stepper(const ScenarioSpec& spec, SpanRecorder& rec)
        : spec_(spec), rec_(rec), rng_(spec.seed), probe_rng_(spec.seed ^ kProbeSalt) {
        session_.emplace(build_timed_session(spec_, rng_, rec_, request_, kappa_, registry_));
        Scope span(rec_, "core.session_init");
        session_->enable_graph_journals(
            std::max<std::size_t>(4096, session_->current().node_count() * 2));
    }

    Outcome run();

private:
    bool try_insert(adversary::InsertionStrategy& inserter, std::size_t step,
                    std::uint32_t phase, Outcome& out);
    void record(TraceEvent event, Outcome& out);
    void maybe_compact(std::size_t compact, std::size_t step, std::uint32_t phase,
                       Outcome& out);
    MetricSample sample(std::size_t step, const std::string& phase, const Probes& probes,
                        std::int64_t index);

    const ScenarioSpec& spec_;
    SpanRecorder& rec_;
    std::int64_t request_ = -1;  ///< event or sample index the open spans serve
    util::Rng rng_;
    util::Rng probe_rng_;
    std::size_t kappa_ = 1;
    const core::CloudRegistry* registry_ = nullptr;
    std::optional<core::HealingSession> session_;
    scenario::TraceHasher hasher_;
    spectral::ProbeEngine engine_;
    spectral::IncrementalSnapshot snap_;
    spectral::IncrementalSnapshot ref_snap_;
    std::vector<graph::NodeId> sources_;
};

void Stepper::record(TraceEvent event, Outcome& out) {
    Scope span(rec_, "scenario.trace", request_);
    hasher_.add(event);
    out.events.push_back(std::move(event));
}

bool Stepper::try_insert(adversary::InsertionStrategy& inserter, std::size_t step,
                         std::uint32_t phase, Outcome& out) {
    request_ = static_cast<std::int64_t>(out.events.size());
    std::vector<graph::NodeId> neighbors;
    {
        Scope span(rec_, "adversary.attach", request_);
        neighbors = inserter.pick_neighbors(*session_, rng_);
    }
    if (neighbors.empty()) return false;
    TraceEvent event;
    event.kind = TraceEvent::Kind::insert;
    event.step = step;
    event.phase = phase;
    {
        Scope span(rec_, "core.session", request_);
        event.node = session_->insert_node(neighbors);
    }
    event.neighbors = std::move(neighbors);
    ++out.insertions;
    record(std::move(event), out);
    return true;
}

void Stepper::maybe_compact(std::size_t compact, std::size_t step, std::uint32_t phase,
                            Outcome& out) {
    const graph::Graph& g = session_->current();
    out.live_high_water = std::max(out.live_high_water, g.node_count());
    out.peak_slot_count = std::max<std::size_t>(out.peak_slot_count, g.next_id());
    if (compact == 0 || g.next_id() <= g.node_count() ||
        g.next_id() < compact * std::max<std::size_t>(g.node_count(), 1))
        return;
    request_ = static_cast<std::int64_t>(out.events.size());
    TraceEvent event;
    event.kind = TraceEvent::Kind::compact;
    event.step = step;
    event.phase = phase;
    event.node = static_cast<graph::NodeId>(g.node_count());
    record(std::move(event), out);
    Scope span(rec_, "core.compact", request_);
    const std::vector<graph::NodeId>& map = session_->compact();
    snap_.invalidate();
    ref_snap_.invalidate();
    engine_.on_compact(map);
    ++out.compactions;
}

MetricSample Stepper::sample(std::size_t step, const std::string& phase,
                             const Probes& probes, std::int64_t index) {
    Scope span(rec_, "scenario.sample", index);
    const graph::Graph& g = session_->current();
    const graph::Graph& ref = session_->reference();
    MetricSample s;
    s.step = step;
    s.phase = phase;
    s.nodes = g.node_count();
    s.edges = g.edge_count();
    s.deletions = session_->deletions();
    s.insertions = session_->insertions();
    s.messages = session_->totals().messages;
    s.rounds = session_->totals().rounds;
    s.retries = session_->totals().retries;
    auto t0 = std::chrono::steady_clock::now();
    {
        Scope sync(rec_, "spectral.csr_sync", index);
        snap_.note(g, g.journal(), g.journal_overflowed());
        ref_snap_.note(ref, ref.journal(), ref.journal_overflowed());
        g.clear_journal();
        ref.clear_journal();
        if (probes.connected || probes.lambda2 || probes.stretch) snap_.sync(g);
        if (probes.stretch) ref_snap_.sync(ref);
    }
    if (probes.connected) {
        Scope probe(rec_, "spectral.components", index);
        s.components = engine_.component_count_csr(snap_.csr());
    }
    if (probes.degree) {
        Scope probe(rec_, "core.degree_probe", index);
        s.max_degree = g.max_degree();
        core::DegreeIncrease increase = core::degree_increase(g, ref);
        s.max_degree_ratio = increase.max_ratio;
        s.mean_degree_ratio = increase.mean_ratio;
        double worst = 0.0;
        double two_kappa = 2.0 * static_cast<double>(kappa_);
        for (graph::NodeId v : g.nodes()) {
            std::size_t dref = ref.degree(v);
            if (dref == 0) continue;
            double slack = static_cast<double>(g.degree(v)) - two_kappa;
            worst = std::max(worst, slack / static_cast<double>(dref));
        }
        s.worst_slack_ratio = worst;
    }
    if (probes.lambda2) {
        Scope probe(rec_, "spectral.lambda2", index);
        s.lambda2 = engine_.lambda2_csr(snap_.csr());
    }
    if (probes.stretch) {
        Scope probe(rec_, "spectral.stretch", index);
        spectral::ProbeEngine::sample_stretch_sources(snap_.csr(), spec_.stretch_samples,
                                                      probe_rng_, sources_);
        s.stretch = engine_.stretch_over_sources(snap_.csr(), ref_snap_.csr(), sources_);
    }
    s.probe_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    return s;
}

Outcome Stepper::run() {
    Outcome out;
    const Probes cadence = cadence_probes(spec_);
    out.live_high_water = session_->current().node_count();
    out.peak_slot_count = session_->current().next_id();
    std::size_t global_step = 0;
    {
        Scope stepping(rec_, "scenario.stepping");
        for (std::size_t pi = 0; pi < spec_.phases.size(); ++pi) {
            const scenario::PhaseSpec& phase = spec_.phases[pi];
            const auto phase_index = static_cast<std::uint32_t>(pi);
            session_->healer().set_network_faults(core::NetFaults{phase.drop, phase.latency});
            auto deleter = scenario::make_phase_deleter(phase, registry_);
            auto inserter = scenario::make_inserter(phase.inserter);
            for (std::size_t step = 0; step < phase.steps; ++step) {
                for (std::size_t i = 0; i < phase.insert_burst; ++i)
                    if (!try_insert(*inserter, global_step, phase_index, out)) ++out.skipped;
                double fraction = phase.delete_fraction_at(step);
                for (std::size_t b = 0; b < phase.burst; ++b) {
                    bool want_delete = fraction >= 1.0   ? true
                                       : fraction <= 0.0 ? false
                                                         : rng_.chance(fraction);
                    bool did_event = false;
                    if (want_delete && session_->current().node_count() > phase.min_nodes) {
                        request_ = static_cast<std::int64_t>(out.events.size());
                        graph::NodeId victim;
                        {
                            Scope span(rec_, "adversary.pick", request_);
                            victim = deleter->pick(*session_, rng_);
                        }
                        if (victim != graph::invalid_node) {
                            TraceEvent event;
                            event.kind = TraceEvent::Kind::remove;
                            event.step = global_step;
                            event.phase = phase_index;
                            event.node = victim;
                            {
                                Scope span(rec_, "core.session", request_);
                                out.totals.accumulate(session_->delete_node(victim));
                            }
                            ++out.deletions;
                            record(std::move(event), out);
                            did_event = true;
                        }
                    }
                    if (!did_event && fraction < 1.0)
                        did_event = try_insert(*inserter, global_step, phase_index, out);
                    if (!did_event) ++out.skipped;
                }
                maybe_compact(phase.compact, global_step, phase_index, out);
                ++global_step;
                if (spec_.sample_every != 0 && global_step % spec_.sample_every == 0 &&
                    global_step != spec_.total_steps())
                    out.samples.push_back(
                        sample(global_step, phase.name, cadence,
                               static_cast<std::int64_t>(out.samples.size())));
            }
        }
    }
    std::string last_phase = spec_.phases.empty() ? "" : spec_.phases.back().name;
    out.samples.push_back(sample(global_step, last_phase, final_probes(spec_),
                                 static_cast<std::int64_t>(out.samples.size())));
    out.trace_hash = hasher_.value();
    out.csr_rebuilds = snap_.rebuilds() + ref_snap_.rebuilds();
    out.csr_rows_patched = snap_.patched_events() + ref_snap_.patched_events();
    {
        Scope span(rec_, "scenario.fingerprint");
        out.fingerprint = scenario::graph_fingerprint(session_->current());
    }
    const MetricSample& fin = out.samples.back();
    for (const Expectation& e : spec_.expectations) {
        switch (e.kind) {
            case Expectation::Kind::connected:
                if (!fin.connected()) out.failures.push_back("connected");
                break;
            case Expectation::Kind::nodes_ge:
                if (!(static_cast<double>(fin.nodes) >= e.value))
                    out.failures.push_back("nodes");
                break;
            case Expectation::Kind::lambda2_ge:
                if (!(fin.lambda2 >= e.value)) out.failures.push_back("lambda2");
                break;
            case Expectation::Kind::peak_slot_factor_le: {
                double factor = out.live_high_water == 0
                                    ? 0.0
                                    : static_cast<double>(out.peak_slot_count) /
                                          static_cast<double>(out.live_high_water);
                if (!(factor <= e.value)) out.failures.push_back("peak_slot_factor");
                break;
            }
            default:
                break;  // rejected by require_mirrored
        }
    }
    return out;
}

}  // namespace

void require_mirrored(const ScenarioSpec& spec) {
    auto reject = [](const std::string& what) {
        throw std::runtime_error("traced stepper does not mirror " + what);
    };
    if (spec.shards != 1) reject("`shards`");
    for (const scenario::PhaseSpec& phase : spec.phases) {
        if (phase.batch != 1) reject("`batch=`");
        if (phase.shards.has_value()) reject("`shards=`");
        if (phase.seed.has_value()) reject("phase `seed=`");
        if (phase.delete_fraction_end.has_value()) reject("delete_fraction ramps");
        if (!phase.deleter_mix.empty()) reject("deleter mixtures");
    }
    cadence_probes(spec);
    for (const Expectation& e : spec.expectations)
        if (e.kind != Expectation::Kind::connected && e.kind != Expectation::Kind::nodes_ge &&
            e.kind != Expectation::Kind::lambda2_ge &&
            e.kind != Expectation::Kind::peak_slot_factor_le)
            reject("expectation '" + e.to_text() + "'");
}

Outcome traced_run(const ScenarioSpec& spec, SpanRecorder& rec) {
    require_mirrored(spec);
    Stepper stepper(spec, rec);
    return stepper.run();
}

ExecOutcome traced_execute(const ScenarioSpec& spec, const std::vector<TraceEvent>& events,
                           SpanRecorder& rec) {
    // TraceExecutor's defaults: structural oracles after every applied event,
    // stop at the first finding, never delete at or below two live nodes.
    constexpr std::size_t min_alive = 2;
    Scope root(rec, "trace_tools.execute");
    std::int64_t request = -1;
    util::Rng rng(spec.seed);
    std::size_t kappa = 1;
    const core::CloudRegistry* registry = nullptr;
    core::HealingSession session =
        build_timed_session(spec, rng, rec, request, kappa, registry);
    core::InvariantSuite suite(kappa);
    suite.enable_degree_bound(registry != nullptr);

    ExecOutcome out;
    scenario::TraceHasher hasher;
    std::vector<core::InvariantFinding> findings;
    auto append = [&](TraceEvent canonical) {
        Scope span(rec, "scenario.trace", request);
        canonical.step = out.applied++;
        hasher.add(canonical);
    };
    for (std::size_t i = 0; i < events.size(); ++i) {
        const TraceEvent& event = events[i];
        request = static_cast<std::int64_t>(i);
        bool applied = false;
        if (event.kind == TraceEvent::Kind::remove) {
            if (session.current().has_node(event.node) &&
                session.current().node_count() > min_alive) {
                TraceEvent canonical = event;
                canonical.neighbors.clear();
                append(std::move(canonical));
                Scope span(rec, "core.session", request);
                session.delete_node(event.node);
                applied = true;
            }
        } else if (event.kind == TraceEvent::Kind::compact) {
            TraceEvent canonical = event;
            canonical.neighbors.clear();
            canonical.node = static_cast<graph::NodeId>(session.current().node_count());
            append(std::move(canonical));
            Scope span(rec, "core.compact", request);
            session.compact();
            applied = true;
        } else {
            TraceEvent canonical = event;
            auto& nb = canonical.neighbors;
            nb.erase(std::remove_if(nb.begin(), nb.end(),
                                    [&](graph::NodeId u) {
                                        return !session.current().has_node(u);
                                    }),
                     nb.end());
            std::sort(nb.begin(), nb.end());
            nb.erase(std::unique(nb.begin(), nb.end()), nb.end());
            if (!nb.empty()) {
                {
                    Scope span(rec, "core.session", request);
                    canonical.node = session.insert_node(canonical.neighbors);
                }
                append(std::move(canonical));
                applied = true;
            }
        }
        if (!applied) {
            ++out.skipped;
            continue;
        }
        {
            Scope span(rec, "core.invariants", request);
            suite.check_structural(session, findings);
        }
        if (!findings.empty()) break;
    }
    for (const core::InvariantFinding& f : findings)
        out.findings.push_back(f.oracle + ": " + f.message);
    out.trace_hash = hasher.value();
    Scope span(rec, "scenario.fingerprint");
    out.fingerprint = scenario::graph_fingerprint(session.current());
    return out;
}

}  // namespace xbench
