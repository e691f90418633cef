// The traced run: a stepper that reproduces ScenarioRunner::run()'s serial
// path and TraceExecutor::execute() from public layer calls only, with a
// span around each call so time can be attributed per layer from outside
// the library. The untraced run calls run() and execute() themselves; the
// benchmark checks that both produce the same trace hash, fingerprint and
// metric samples, bit for bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/healer.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "scenario/trace.hpp"
#include "spans.hpp"

namespace xbench {

/// What a run of the phase schedule produced: the values the checks compare
/// and the counts the metrics divide by. Filled from a RunResult on the
/// untraced path and by the stepper on the traced one.
struct Outcome {
    std::vector<xheal::scenario::TraceEvent> events;
    std::uint64_t trace_hash = 0;
    std::uint64_t fingerprint = 0;
    std::vector<xheal::scenario::MetricSample> samples;
    std::size_t deletions = 0;
    std::size_t insertions = 0;
    std::size_t skipped = 0;
    std::size_t compactions = 0;
    std::size_t peak_slot_count = 0;
    std::size_t live_high_water = 0;
    xheal::core::RepairReport totals;
    std::vector<std::string> failures;  ///< failed `expect` clauses
    /// Traced run only: IncrementalSnapshot::sync accounting, current +
    /// reference snapshots (the untraced run's pipeline double-buffers
    /// snapshots, so its counts differ by design).
    std::uint64_t csr_rebuilds = 0;
    std::uint64_t csr_rows_patched = 0;
};

/// Outcome of applying a recorded stream under the structural oracles.
struct ExecOutcome {
    std::uint64_t trace_hash = 0;
    std::uint64_t fingerprint = 0;
    std::size_t applied = 0;  ///< events applied (compact events included)
    std::size_t skipped = 0;
    std::vector<std::string> findings;  ///< "oracle: message"
};

/// Throws std::runtime_error when the spec uses a grammar feature the
/// traced stepper does not mirror (batch=, shards, phase seed=, ramps,
/// deleter mixtures, the expansion probe, other expectation kinds).
void require_mirrored(const xheal::scenario::ScenarioSpec& spec);

/// ScenarioRunner::run() on the serial path, probes inline.
Outcome traced_run(const xheal::scenario::ScenarioSpec& spec, SpanRecorder& rec);

/// TraceExecutor::execute() with the structural oracles after every event.
ExecOutcome traced_execute(const xheal::scenario::ScenarioSpec& spec,
                           const std::vector<xheal::scenario::TraceEvent>& events,
                           SpanRecorder& rec);

}  // namespace xbench
