// In-memory span recorder for the traced benchmark run.
//
// A span is one timed call into a layer's public API, recorded from the
// benchmark's side of the boundary: {id, parent, request, name, t0, t1}.
// `request` is the adversary event index or sample index the call served
// (-1 for set-up and whole-run spans). Spans live in a vector reserved up
// front and are written out only when the run ends, so recording costs two
// clock reads and one append per span.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace xbench {

struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< kNoParent for a root span
    std::int64_t request = -1;
    const char* name = "";     ///< string literal: "<layer>.<call>"
    std::int64_t t0 = 0;       ///< ns since the recorder was created
    std::int64_t t1 = 0;
};

/// Per span name: calls, total duration, and self time (duration minus the
/// time its direct children cover).
struct SpanTotals {
    std::uint64_t calls = 0;
    double total_s = 0.0;
    double self_s = 0.0;
};

class SpanRecorder {
public:
    static constexpr std::uint32_t kNoParent = 0xffffffffu;

    explicit SpanRecorder(std::size_t capacity);

    SpanRecorder(const SpanRecorder&) = delete;
    SpanRecorder& operator=(const SpanRecorder&) = delete;

    /// Open a span nested under the innermost open one.
    std::uint32_t open(const char* name, std::int64_t request);
    void close(std::uint32_t id);

    /// RAII form: the span closes when the scope ends.
    class Scope {
    public:
        Scope(SpanRecorder& rec, const char* name, std::int64_t request = -1)
            : rec_(rec), id_(rec.open(name, request)) {}
        ~Scope() { rec_.close(id_); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        SpanRecorder& rec_;
        std::uint32_t id_;
    };

    const std::vector<Span>& spans() const { return spans_; }

    /// Aggregate by span name (every span must be closed).
    std::map<std::string, SpanTotals> totals() const;

    /// One JSON object per line.
    void write_jsonl(const std::string& path) const;

private:
    std::int64_t now() const;

    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<std::uint32_t> stack_;
};

}  // namespace xbench
