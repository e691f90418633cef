// Deterministic JSONL event traces — the regression primitive of the
// scenario engine. A run records every adversary event (insert with its
// neighbor set, delete with its victim) plus a running FNV-1a hash and the
// final-graph fingerprint; `replay` re-applies the event stream against a
// fresh session built from the same spec and must reproduce both hashes
// byte-for-byte (the healer's randomness is fully determined by its seed).
//
// Format: one JSON object per line, written and parsed by this module only
// (a tiny purpose-built scanner, not a general JSON parser):
//
//   {"type":"header","scenario":"phased-churn","seed":42,"spec_hash":"0x..."}
//   {"type":"insert","step":3,"phase":0,"node":65,"neighbors":[2,9,41]}
//   {"type":"delete","step":4,"phase":0,"node":17}
//   {"type":"compact","step":7,"phase":1,"live":48}
//   {"type":"end","events":96,"trace_hash":"0x...","fingerprint":"0x..."}
//
// A compact record marks an id-compaction epoch boundary (DESIGN.md decision
// 12): the session renumbered the live ids densely after this step. Node ids
// in subsequent events are in the NEW numbering; `live` (stored in
// TraceEvent::node) is the live-node count — i.e. next_id after the remap —
// which replay re-derives and checks before compacting its own session.
// Traces written while the shard engine existed (DESIGN.md decision 13) may
// carry a `"shards":S` key on compact records; it was never hashed, and the
// reader ignores it.
//
// Numbers are read strictly: decimal digits only (hashes: "0x" + hex), no
// trailing junk, and within the field's width (phase: 32 bits, node ids:
// graph::NodeId) — anything else fails with its line number.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace xheal::scenario {

struct TraceEvent {
    enum class Kind { insert, remove, compact };
    Kind kind = Kind::remove;
    std::uint64_t step = 0;   ///< global step index (0-based)
    std::uint32_t phase = 0;  ///< index into the spec's phase list
    graph::NodeId node = graph::invalid_node;  ///< compact: live-node count
    std::vector<graph::NodeId> neighbors;  ///< insert only: attach set

    friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// The JSONL line of one event, exactly as write_trace emits it (no
/// trailing newline) — shared by the writer and the diff renderer.
std::string event_to_json(const TraceEvent& event);

/// "0x%016llx" rendering of a trace hash/fingerprint, as written in the
/// header/end records — shared by the writer, diff output and the CLI.
std::string hex64(std::uint64_t value);

/// Running FNV-1a 64 over a canonical byte encoding of the event stream.
class TraceHasher {
public:
    void add(const TraceEvent& event);
    std::uint64_t value() const { return hash_; }

private:
    void mix(std::uint64_t word);

    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Order-independent-of-representation fingerprint of a graph: FNV-1a over
/// the sorted node ids and the sorted edge list with full claim sets.
/// Two graphs with identical structure and claims hash identically.
std::uint64_t graph_fingerprint(const graph::Graph& g);

struct Trace {
    std::string scenario;
    std::uint64_t seed = 0;
    std::uint64_t spec_hash = 0;
    std::vector<TraceEvent> events;
    std::uint64_t trace_hash = 0;   ///< from the "end" record
    std::uint64_t fingerprint = 0;  ///< final-graph fingerprint at record time
};

/// Serialize a complete trace as JSONL.
void write_trace(std::ostream& out, const Trace& trace);
void write_trace_file(const std::string& path, const Trace& trace);

/// Parse a trace produced by write_trace. Throws std::runtime_error with a
/// line number on malformed input; the header and end records are required.
Trace read_trace(std::istream& in);
Trace read_trace_file(const std::string& path);

}  // namespace xheal::scenario
