#include "spans.hpp"

#include <fstream>
#include <stdexcept>

namespace xbench {

SpanRecorder::SpanRecorder(std::size_t capacity) : origin_(std::chrono::steady_clock::now()) {
    spans_.reserve(capacity);
    stack_.reserve(16);
}

std::int64_t SpanRecorder::now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

std::uint32_t SpanRecorder::open(const char* name, std::int64_t request) {
    Span span;
    span.id = static_cast<std::uint32_t>(spans_.size());
    span.parent = stack_.empty() ? kNoParent : stack_.back();
    span.request = request;
    span.name = name;
    spans_.push_back(span);
    stack_.push_back(span.id);
    // Read the clock last so the append above is billed to the parent.
    spans_.back().t0 = now();
    return span.id;
}

void SpanRecorder::close(std::uint32_t id) {
    spans_[id].t1 = now();
    stack_.pop_back();
}

std::map<std::string, SpanTotals> SpanRecorder::totals() const {
    std::map<std::string, SpanTotals> out;
    for (const Span& s : spans_) {
        double dur = static_cast<double>(s.t1 - s.t0) * 1e-9;
        SpanTotals& t = out[s.name];
        ++t.calls;
        t.total_s += dur;
        t.self_s += dur;
        if (s.parent != kNoParent) out[spans_[s.parent].name].self_s -= dur;
    }
    return out;
}

void SpanRecorder::write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write " + path);
    for (const Span& s : spans_) {
        out << "{\"id\":" << s.id << ",\"parent\":";
        if (s.parent == kNoParent) out << "null";
        else out << s.parent;
        out << ",\"request\":" << s.request << ",\"name\":\"" << s.name
            << "\",\"t0\":" << s.t0 << ",\"t1\":" << s.t1 << "}\n";
    }
    if (!out) throw std::runtime_error("write failed: " + path);
}

}  // namespace xbench
