#include "trace_tools/batch.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

namespace xheal::trace_tools {

BatchOutcome summarize(const std::string& file, const scenario::ScenarioSpec& spec,
                       const scenario::RunResult& result) {
    BatchOutcome out;
    out.file = file;
    out.scenario = spec.name;
    out.healer = spec.healer.kind;
    out.pass = result.passed();
    out.steps = result.steps_done;
    out.events = result.events.size();
    out.trace_hash = result.trace_hash;
    out.fingerprint = result.fingerprint;
    out.seconds = result.seconds;
    out.steps_per_sec = result.steps_per_sec();
    out.probe_seconds = result.probe_seconds;
    out.samples = result.samples.size();
    out.probe_rebuilds = result.probe_rebuilds;
    out.probe_patched_events = result.probe_patched_events;
    out.deletions = result.final_sample.deletions;
    out.messages = result.final_sample.messages;
    out.rounds = result.final_sample.rounds;
    out.retries = result.final_sample.retries;
    out.failures = result.failures;
    return out;
}

namespace {

BatchOutcome run_one(const BatchJob& job) {
    try {
        return summarize(job.file, job.spec, scenario::ScenarioRunner(job.spec).run());
    } catch (const std::exception& e) {
        BatchOutcome out;
        out.file = job.file;
        out.scenario = job.spec.name;
        out.healer = job.spec.healer.kind;
        out.errored = true;
        out.error = e.what();
        return out;
    }
}

}  // namespace

std::vector<BatchOutcome> run_batch(const std::vector<BatchJob>& jobs,
                                    std::size_t workers) {
    std::vector<BatchOutcome> outcomes(jobs.size());
    if (jobs.empty()) return outcomes;
    std::size_t pool = std::min(std::max<std::size_t>(workers, 1), jobs.size());
    if (pool == 1) {
        // Degenerate pool: run on the calling thread. Each runner still forks
        // one helper task per sample that takes the stretch probe, so
        // --jobs 1 is not thread-free; its values equal any other job count.
        for (std::size_t i = 0; i < jobs.size(); ++i) outcomes[i] = run_one(jobs[i]);
        return outcomes;
    }

    // Dynamic distribution: workers claim the next unstarted job. Each
    // outcome lands in its own pre-sized slot, so no result locking; the
    // claim counter is the only shared mutable state.
    std::atomic<std::size_t> next{0};
    auto drain = [&] {
        for (;;) {
            std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= jobs.size()) return;
            outcomes[i] = run_one(jobs[i]);
        }
    };
    std::vector<std::thread> threads;
    threads.reserve(pool);
    for (std::size_t t = 0; t < pool; ++t) threads.emplace_back(drain);
    for (std::thread& t : threads) t.join();
    return outcomes;
}

}  // namespace xheal::trace_tools
