// TraceShrinker — ddmin-style delta debugging over event streams: reduce
// any invariant-breaking stream to a 1-minimal reproducer and emit it as a
// standalone (.scn, .jsonl) pair that `xheal_run replay` reproduces
// byte-for-byte.
//
// The predicate is "TraceExecutor reports at least one violation for these
// events under this spec". Shrinking always starts from the *canonical*
// applied stream of the failing input (infeasible events dropped, stream
// cut at the first violation) — re-executing
// a canonical stream replays the identical session history, so it fails
// iff the input failed, and it is usually already much shorter. Each
// successful reduction is re-canonicalized the same way, which keeps every
// intermediate stream feasible and lets the executor's violation cut-off
// act as a free extra shrink per round.
//
// Termination: a ddmin round either strictly shrinks the stream (subset or
// complement reductions are shorter, and re-canonicalization never grows a
// stream) or doubles the granularity; granularity is capped at the current
// stream length, at which point the stream is 1-minimal and the loop ends.
// A predicate budget bounds the worst case (O(n^2) tests) regardless.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "scenario/spec.hpp"
#include "scenario/trace.hpp"
#include "trace_tools/executor.hpp"

namespace xheal::trace_tools {

struct ShrinkOptions {
    ExecOptions exec;
    /// Hard cap on predicate evaluations (executor runs).
    std::size_t max_tests = 2000;
};

struct ShrinkResult {
    /// False when the input stream never violated anything (nothing to
    /// shrink); every other field is meaningful only when true.
    bool input_failed = false;
    std::size_t input_events = 0;    ///< size of the raw failing input
    std::size_t tests_run = 0;       ///< predicate evaluations spent
    /// Execution of the minimal stream: exec.applied is the reproducer,
    /// exec.violations pins the surviving failure.
    ExecResult exec;

    std::size_t final_events() const { return exec.applied.size(); }
};

/// Minimize `events` against the oracle suite for `spec`.
ShrinkResult shrink(const scenario::ScenarioSpec& spec,
                    const std::vector<scenario::TraceEvent>& events,
                    const ShrinkOptions& options = {});

/// Write the reproducer pair: `<base>.scn` (canonical spec text) and
/// `<base>.jsonl` (the minimal canonical trace). Returns the two paths.
/// `xheal_run replay <base>.scn <base>.jsonl` reproduces it byte-for-byte,
/// and `xheal_run shrink <base>.scn <base>.jsonl` re-confirms the
/// violation. Throws std::runtime_error when a file cannot be written.
std::pair<std::string, std::string> write_reproducer(const std::string& base_path,
                                                     const scenario::ScenarioSpec& spec,
                                                     const ShrinkResult& result);

}  // namespace xheal::trace_tools
