#include "trace_tools/fuzz.hpp"

#include <algorithm>
#include <utility>

#include "scenario/runner.hpp"
#include "util/rng.hpp"

namespace xheal::trace_tools {

using scenario::ScenarioSpec;
using scenario::TraceEvent;

namespace {

/// The search stops after this many findings: the first one is the one
/// that gets shrunk, and the rest only show the failure is not a one-off.
constexpr std::size_t kMaxFindings = 8;

/// The copy of `spec` that records a candidate stream through
/// ScenarioRunner: no probes, expectations or sample cadence. Probes cannot
/// perturb the stream (independent probe rng), but every run would pay the
/// final metric-probe cost (lambda2/stretch solves at scale) for a verdict
/// the fuzzer ignores. The executor and each finding get the candidate
/// spec itself.
ScenarioSpec recording_spec(ScenarioSpec spec) {
    spec.probes.clear();
    spec.expectations.clear();
    spec.sample_every = 0;
    return spec;
}

// Stream mutators: perturb a recorded event list in place.

void truncate(std::vector<TraceEvent>& events, util::Rng& rng) {
    if (events.empty()) return;
    events.resize(rng.index(events.size()) + 1);
}

/// Pick a window [begin, begin+len) over `size` elements; len in [1, 8].
std::pair<std::size_t, std::size_t> pick_window(std::size_t size, util::Rng& rng) {
    std::size_t len = 1 + rng.index(std::min<std::size_t>(8, size));
    std::size_t begin = rng.index(size - len + 1);
    return {begin, len};
}

void drop_window(std::vector<TraceEvent>& events, util::Rng& rng) {
    if (events.empty()) return;
    auto [begin, len] = pick_window(events.size(), rng);
    events.erase(events.begin() + static_cast<std::ptrdiff_t>(begin),
                 events.begin() + static_cast<std::ptrdiff_t>(begin + len));
}

void dup_window(std::vector<TraceEvent>& events, util::Rng& rng) {
    if (events.empty()) return;
    auto [begin, len] = pick_window(events.size(), rng);
    std::vector<TraceEvent> window(events.begin() + static_cast<std::ptrdiff_t>(begin),
                                   events.begin() +
                                       static_cast<std::ptrdiff_t>(begin + len));
    events.insert(events.begin() + static_cast<std::ptrdiff_t>(begin + len),
                  window.begin(), window.end());
}

void swap_events(std::vector<TraceEvent>& events, util::Rng& rng) {
    if (events.size() < 2) return;
    std::size_t i = rng.index(events.size());
    std::size_t j = rng.index(events.size());
    std::swap(events[i], events[j]);
}

// Spec mutators: perturb the phase schedule, then re-run the scenario to
// produce the candidate stream (the adversary strategies re-decide under
// the mutated schedule).

void phase_reorder(ScenarioSpec& spec, util::Rng& rng) { rng.shuffle(spec.phases); }

void burst_spike(ScenarioSpec& spec, util::Rng& rng) {
    auto& phase = spec.phases[rng.index(spec.phases.size())];
    // Always escalate: the cap bounds candidate cost for the common
    // burst=1 schedules without ever *reducing* an already-bursty phase.
    phase.burst = std::max<std::size_t>(phase.burst * 2,
                                        std::min<std::size_t>(
                                            16, phase.burst * (2 + rng.index(3))));
}

void delete_fraction_spike(ScenarioSpec& spec, util::Rng& rng) {
    auto& phase = spec.phases[rng.index(spec.phases.size())];
    phase.delete_fraction = 1.0;
    phase.delete_fraction_end.reset();  // a spiked ramp is a constant spike
    phase.min_nodes = std::max<std::size_t>(2, phase.min_nodes / 2);
}

/// One mutator: either a stream mutator (perturbs a copy of the base
/// events) or a spec mutator (perturbs the schedule; the candidate stream
/// comes from re-running the scenario). `min_phases` gates mutators that
/// need a schedule to rearrange; ineligible picks fall back to a stream
/// mutator, which never has such a requirement.
struct Mutator {
    const char* name;
    void (*stream)(std::vector<TraceEvent>&, util::Rng&);
    void (*spec)(ScenarioSpec&, util::Rng&);
    std::size_t min_phases;
};

constexpr Mutator kMutators[] = {
    {"truncate", truncate, nullptr, 0},
    {"drop-window", drop_window, nullptr, 0},
    {"dup-window", dup_window, nullptr, 0},
    {"swap-events", swap_events, nullptr, 0},
    {"phase-reorder", nullptr, phase_reorder, 2},
    {"burst-spike", nullptr, burst_spike, 1},
    {"delete-spike", nullptr, delete_fraction_spike, 1},
};

/// Stream mutators lead the table (the fallback draws from this prefix).
constexpr std::size_t kStreamMutators = 4;
static_assert(kMutators[kStreamMutators - 1].spec == nullptr &&
              kMutators[kStreamMutators].stream == nullptr);

}  // namespace

// The oracles are the invariant suite (connectivity, claim mirror, Lemma 3
// degree bound, and the lambda2 floor the executor reads from the
// candidate spec's `expect lambda2 >=` clause); terminal expectations on
// other metrics (expansion, stretch, nodes) are deliberately not fuzz
// oracles.
TraceFuzzer::TraceFuzzer(ScenarioSpec base, FuzzOptions options)
    : base_(std::move(base)), options_(std::move(options)), executor_(options_.exec) {}

FuzzReport TraceFuzzer::run() {
    FuzzReport report;
    std::vector<TraceEvent> base_events =
        scenario::ScenarioRunner(recording_spec(base_)).run().events;
    report.base_events = base_events.size();

    util::Rng rng(options_.seed);
    for (std::size_t candidate = 0; candidate < options_.candidates; ++candidate) {
        std::size_t which = rng.index(std::size(kMutators));
        if (base_.phases.size() < kMutators[which].min_phases)
            which = rng.index(kStreamMutators);
        const Mutator& picked = kMutators[which];

        ScenarioSpec spec = base_;
        std::vector<TraceEvent> events;
        std::string mutator = picked.name;
        if (picked.stream != nullptr) {
            events = base_events;
            picked.stream(events, rng);
        } else {
            picked.spec(spec, rng);
            try {
                events = scenario::ScenarioRunner(recording_spec(spec)).run().events;
            } catch (const std::exception& e) {
                // A schedule the engine itself cannot survive is a finding
                // in its own right.
                FuzzFinding finding;
                finding.candidate = candidate;
                finding.mutator = std::move(mutator);
                finding.spec = std::move(spec);
                finding.exec.violations.push_back({0, "runner-exception", e.what()});
                report.findings.push_back(std::move(finding));
                ++report.candidates_run;
                if (report.findings.size() >= kMaxFindings) break;
                continue;
            }
        }

        ExecResult exec = executor_.execute(spec, events);
        ++report.candidates_run;
        if (exec.failed()) {
            report.findings.push_back({candidate, std::move(mutator), std::move(spec),
                                       std::move(events), std::move(exec)});
            if (report.findings.size() >= kMaxFindings) break;
        }
    }
    return report;
}

}  // namespace xheal::trace_tools
