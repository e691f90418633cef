#include "scenario/trace.hpp"

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "scenario/spec.hpp"

namespace xheal::scenario {

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
    throw std::runtime_error("trace line " + std::to_string(line_no) + ": " + what);
}

/// Extract the raw value text after `"key":` in a one-line JSON object
/// (up to the next ',' or '}' for scalars; the bracketed list for arrays).
/// Only handles the flat objects this module writes.
std::string extract(const std::string& line, const std::string& key, std::size_t line_no) {
    std::string needle = "\"" + key + "\":";
    auto at = line.find(needle);
    if (at == std::string::npos) fail(line_no, "missing key " + quote(key));
    std::size_t start = at + needle.size();
    if (start < line.size() && line[start] == '[') {
        auto close = line.find(']', start);
        if (close == std::string::npos) fail(line_no, "unterminated array for " + quote(key));
        return line.substr(start + 1, close - start - 1);
    }
    if (start < line.size() && line[start] == '"') {
        auto close = line.find('"', start + 1);
        if (close == std::string::npos) fail(line_no, "unterminated string for " + quote(key));
        return line.substr(start + 1, close - start - 1);
    }
    std::size_t end = start;
    while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
    return line.substr(start, end - start);
}

/// Strict parse (parse_u64) of one number field into T: a value that does
/// not fit T fails instead of truncating.
template <typename T>
T to_uint(const std::string& text, const std::string& key, std::size_t line_no) {
    std::uint64_t v = 0;
    try {
        v = parse_u64(text, quote(key));
    } catch (const std::runtime_error& e) {
        fail(line_no, e.what());
    }
    if (v > std::numeric_limits<T>::max())
        fail(line_no, quote(key) + ": value " + quote(text) + " exceeds " +
                          std::to_string(std::numeric_limits<T>::max()));
    return static_cast<T>(v);
}

template <typename T = std::uint64_t>
T extract_uint(const std::string& line, const std::string& key, std::size_t line_no) {
    return to_uint<T>(extract(line, key, line_no), key, line_no);
}

/// A node id or live count. invalid_node is the stepper's in-memory "assign
/// it" marker and never appears in a recorded stream; read from a file it
/// would let replay accept any id in its place.
graph::NodeId extract_node(const std::string& line, const std::string& key,
                           std::size_t line_no) {
    auto v = extract_uint<graph::NodeId>(line, key, line_no);
    if (v == graph::invalid_node)
        fail(line_no, quote(key) + ": " + std::to_string(v) + " is the unassigned-id marker");
    return v;
}

/// Hashes are written as quoted "0x" + 16 hex digits (hex64).
std::uint64_t extract_hex64(const std::string& line, const std::string& key,
                            std::size_t line_no) {
    std::string text = extract(line, key, line_no);
    if (text.rfind("0x", 0) != 0) fail(line_no, quote(key) + ": expected 0x hex, got " + quote(text));
    try {
        return parse_u64(text.substr(2), quote(key), 16);
    } catch (const std::runtime_error& e) {
        fail(line_no, e.what());
    }
}

}  // namespace

std::string hex64(std::uint64_t value) {
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(value));
    return buf;
}

void TraceHasher::mix(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
        hash_ ^= (word >> (8 * byte)) & 0xffu;
        hash_ *= 0x100000001b3ull;
    }
}

void TraceHasher::add(const TraceEvent& event) {
    switch (event.kind) {
        case TraceEvent::Kind::insert: mix(1); break;
        case TraceEvent::Kind::remove: mix(2); break;
        case TraceEvent::Kind::compact: mix(3); break;
    }
    mix(event.step);
    mix(event.phase);
    mix(event.node);
    mix(event.neighbors.size());
    for (graph::NodeId u : event.neighbors) mix(u);
}

std::uint64_t graph_fingerprint(const graph::Graph& g) {
    // Nodes then edges with claims, all in ascending order (the storage's
    // natural iteration order is already sorted).
    TraceHasher h;
    h.mix(g.node_count());
    for (graph::NodeId v : g.nodes()) h.mix(v);
    h.mix(g.edge_count());
    g.for_each_edge([&](graph::NodeId u, graph::NodeId v, const graph::EdgeClaims& claims) {
        h.mix(u);
        h.mix(v);
        h.mix(claims.black ? 1 : 0);
        h.mix(claims.colors.size());
        for (graph::ColorId c : claims.colors) h.mix(c);
    });
    return h.value();
}

std::string event_to_json(const TraceEvent& e) {
    std::ostringstream out;
    if (e.kind == TraceEvent::Kind::insert) {
        out << "{\"type\":\"insert\",\"step\":" << e.step << ",\"phase\":" << e.phase
            << ",\"node\":" << e.node << ",\"neighbors\":[";
        for (std::size_t i = 0; i < e.neighbors.size(); ++i)
            out << (i ? "," : "") << e.neighbors[i];
        out << "]}";
    } else if (e.kind == TraceEvent::Kind::compact) {
        out << "{\"type\":\"compact\",\"step\":" << e.step << ",\"phase\":" << e.phase
            << ",\"live\":" << e.node << "}";
    } else {
        out << "{\"type\":\"delete\",\"step\":" << e.step << ",\"phase\":" << e.phase
            << ",\"node\":" << e.node << "}";
    }
    return out.str();
}

void write_trace(std::ostream& out, const Trace& trace) {
    out << "{\"type\":\"header\",\"scenario\":\"" << trace.scenario
        << "\",\"seed\":" << trace.seed << ",\"spec_hash\":\"" << hex64(trace.spec_hash)
        << "\"}\n";
    for (const TraceEvent& e : trace.events) out << event_to_json(e) << "\n";
    out << "{\"type\":\"end\",\"events\":" << trace.events.size() << ",\"trace_hash\":\""
        << hex64(trace.trace_hash) << "\",\"fingerprint\":\"" << hex64(trace.fingerprint)
        << "\"}\n";
}

void write_trace_file(const std::string& path, const Trace& trace) {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot open trace file for writing: " + path);
    write_trace(out, trace);
}

Trace read_trace(std::istream& in) {
    Trace trace;
    bool saw_header = false, saw_end = false;
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty()) continue;
        std::string type = extract(line, "type", line_no);
        if (type == "header") {
            trace.scenario = extract(line, "scenario", line_no);
            trace.seed = extract_uint(line, "seed", line_no);
            trace.spec_hash = extract_hex64(line, "spec_hash", line_no);
            saw_header = true;
        } else if (type == "insert" || type == "delete") {
            if (saw_end) fail(line_no, "event after end record");
            TraceEvent e;
            e.kind = type == "insert" ? TraceEvent::Kind::insert : TraceEvent::Kind::remove;
            e.step = extract_uint(line, "step", line_no);
            e.phase = extract_uint<std::uint32_t>(line, "phase", line_no);
            e.node = extract_node(line, "node", line_no);
            if (e.kind == TraceEvent::Kind::insert) {
                std::string list = extract(line, "neighbors", line_no);
                std::istringstream items(list);
                std::string item;
                while (std::getline(items, item, ','))
                    e.neighbors.push_back(to_uint<graph::NodeId>(item, "neighbors", line_no));
            }
            trace.events.push_back(std::move(e));
        } else if (type == "compact") {
            // Keys are extracted by name, so a legacy `"shards":S` key (the
            // removed shard engine's width) is read past and ignored.
            if (saw_end) fail(line_no, "event after end record");
            TraceEvent e;
            e.kind = TraceEvent::Kind::compact;
            e.step = extract_uint(line, "step", line_no);
            e.phase = extract_uint<std::uint32_t>(line, "phase", line_no);
            e.node = extract_node(line, "live", line_no);
            trace.events.push_back(std::move(e));
        } else if (type == "end") {
            std::uint64_t events = extract_uint(line, "events", line_no);
            if (events != trace.events.size())
                fail(line_no, "event count mismatch: end says " + std::to_string(events) +
                                  ", read " + std::to_string(trace.events.size()));
            trace.trace_hash = extract_hex64(line, "trace_hash", line_no);
            trace.fingerprint = extract_hex64(line, "fingerprint", line_no);
            saw_end = true;
        } else {
            fail(line_no, "unknown record type " + quote(type));
        }
    }
    if (!saw_header) throw std::runtime_error("trace: missing header record");
    if (!saw_end) throw std::runtime_error("trace: missing end record");
    return trace;
}

Trace read_trace_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open trace file: " + path);
    return read_trace(in);
}

}  // namespace xheal::scenario
