// TraceFuzzer — seeded adversarial-sequence search over a base scenario.
//
// Xheal's guarantees are invariant-shaped (degree bound, connectivity,
// expansion floor), and the Forgiving-Graph line of work shows they are
// broken by event *sequences*, not single events. The fuzzer therefore
// mutates whole runs: it records the base spec's event stream once, then
// per candidate either perturbs the schedule (phase reorder, burst spike,
// delete-fraction spike — re-run through ScenarioRunner to get a fresh
// stream) or perturbs the raw stream directly (truncation, window drop,
// window duplication, event swap), and executes every candidate through
// TraceExecutor with the full invariant oracle suite, the spec's own
// `expect lambda2 >=` floor included. Each finding carries the exact spec +
// input events that failed, ready for the shrinker. The search stops after
// eight findings.
//
// Fully deterministic: (base spec, FuzzOptions.seed) fixes every candidate.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/spec.hpp"
#include "scenario/trace.hpp"
#include "trace_tools/executor.hpp"

namespace xheal::trace_tools {

struct FuzzOptions {
    std::size_t candidates = 100;
    std::uint64_t seed = 1;
    ExecOptions exec;
};

struct FuzzFinding {
    std::size_t candidate = 0;  ///< candidate index (0-based)
    std::string mutator;
    scenario::ScenarioSpec spec;  ///< spec the candidate executed against
    std::vector<scenario::TraceEvent> events;  ///< input events that failed
    ExecResult exec;                           ///< canonical stream + violations
};

struct FuzzReport {
    std::size_t candidates_run = 0;
    std::size_t base_events = 0;
    std::vector<FuzzFinding> findings;

    bool clean() const { return findings.empty(); }
};

class TraceFuzzer {
public:
    TraceFuzzer(scenario::ScenarioSpec base, FuzzOptions options);

    /// Run the search. Call once per fuzzer.
    FuzzReport run();

private:
    scenario::ScenarioSpec base_;
    FuzzOptions options_;
    TraceExecutor executor_;
};

}  // namespace xheal::trace_tools
