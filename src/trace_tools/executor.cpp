#include "trace_tools/executor.hpp"

#include <algorithm>

#include "core/invariants.hpp"
#include "scenario/runner.hpp"
#include "spectral/probes.hpp"
#include "util/rng.hpp"

namespace xheal::trace_tools {

using scenario::ScenarioSpec;
using scenario::Trace;
using scenario::TraceEvent;

Trace ExecResult::to_trace(const ScenarioSpec& spec) const {
    return scenario::make_trace(spec, applied, trace_hash, fingerprint);
}

ExecResult TraceExecutor::execute(const ScenarioSpec& spec,
                                  const std::vector<TraceEvent>& events) const {
    // scenario::build_session is the same constructor path ScenarioRunner
    // uses (master Rng at spec.seed draws the topology, the healer takes
    // its own seed) — sharing it is what makes canonical traces replayable
    // through ScenarioRunner byte-for-byte.
    util::Rng rng(spec.seed);
    std::size_t kappa = 1;
    const core::CloudRegistry* registry = nullptr;
    core::HealingSession session =
        scenario::build_session(spec, rng, nullptr, kappa, registry);

    // One engine per execution: the lambda2 oracle's Lanczos warm start
    // and the Stepper's compaction remap see this stream only.
    spectral::ProbeEngine engine;
    core::InvariantSuite suite(kappa);
    suite.enable_degree_bound(options_.degree_bound && registry != nullptr);
    if (!std::isnan(options_.lambda2_floor))
        suite.set_lambda2_floor(options_.lambda2_floor, [&engine](const graph::Graph& g) {
            return engine.lambda2(g);
        });

    // The event-apply core run() and replay() use: batch flush points,
    // phase entry with its fault model, compaction and the stream hash.
    scenario::Stepper stepper(spec, session, engine);
    ExecResult result;
    std::vector<core::InvariantFinding> findings;

    auto last_event = [&] {
        return stepper.events().empty() ? 0 : stepper.events().size() - 1;
    };
    auto record_findings = [&] {
        for (core::InvariantFinding& f : findings)
            result.violations.push_back(
                {last_event(), std::move(f.oracle), std::move(f.message)});
        findings.clear();
    };

    // The healer may throw mid-event (a stateful healer driven past its
    // contract, or an injected fault gone wrong) — that is a finding, not a
    // tool crash (the oracles never throw). The stepper records an event
    // before applying it, so the throwing event is *kept* in the canonical
    // stream (re-execution reproduces the same exception at the same
    // index), but the session is unusable afterwards, so execution stops
    // unconditionally. Note such streams cannot go through the strict
    // ScenarioRunner::replay — it surfaces the same exception, which is the
    // reproduction.
    bool session_dead = false;
    std::size_t since_check = 0;
    try {
        for (const TraceEvent& event : events) {
            // The stepper stamps steps (renumbered 0..k-1), insert ids and
            // compact live counts (invalid_node = "assign"). A stray
            // neighbors field on a delete or compact would enter the stream
            // hash but never survive the JSONL round-trip.
            TraceEvent canonical = event;
            bool feasible = true;
            if (event.kind == TraceEvent::Kind::insert) {
                auto& nb = canonical.neighbors;
                nb.erase(std::remove_if(nb.begin(), nb.end(),
                                        [&](graph::NodeId u) {
                                            return !session.current().has_node(u);
                                        }),
                         nb.end());
                std::sort(nb.begin(), nb.end());
                nb.erase(std::unique(nb.begin(), nb.end()), nb.end());
                canonical.node = graph::invalid_node;
                feasible = !nb.empty();
            } else {
                canonical.neighbors.clear();
                // Epoch boundaries stay in the canonical stream (fuzzed
                // streams may move them anywhere); compacting an already
                // dense id space is a valid identity renumbering.
                if (event.kind == TraceEvent::Kind::compact)
                    canonical.node = graph::invalid_node;
                else
                    feasible = session.current().has_node(event.node) &&
                               session.current().node_count() > options_.min_alive;
            }
            if (!feasible) {
                ++result.skipped;
                continue;
            }
            stepper.begin_step();
            stepper.apply(std::move(canonical));
            stepper.end_step();

            // A due check waits until nothing is staged: the oracles only
            // ever see healed graphs, never the middle of a batch.
            ++since_check;
            if (options_.check_every != 0 && since_check >= options_.check_every &&
                stepper.staged() == 0) {
                since_check = 0;
                suite.check_structural(session, findings);
                record_findings();
                if (options_.stop_on_violation && result.failed()) break;
            }
        }
        stepper.finish();
    } catch (const std::exception& e) {
        result.violations.push_back({last_event(), "healer-exception", e.what()});
        session_dead = true;
    }

    // Final checks: the structural set if the cadence missed the last
    // event, then the spectral oracle (violations found here are located at
    // the last applied event). A session killed by a healer exception is
    // not probed further.
    if (!session_dead && (!result.failed() || !options_.stop_on_violation)) {
        if (since_check != 0 || options_.check_every == 0) {
            suite.check_structural(session, findings);
            record_findings();
        }
        if (!(options_.stop_on_violation && result.failed())) {
            suite.check_spectral(session, findings);
            record_findings();
        }
    }

    result.applied = std::move(stepper.events());
    result.trace_hash = stepper.trace_hash();
    result.fingerprint = scenario::graph_fingerprint(session.current());
    return result;
}

}  // namespace xheal::trace_tools
