#include "scenario/spec.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <span>
#include <sstream>
#include <stdexcept>

namespace xheal::scenario {

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
    throw std::runtime_error("spec line " + std::to_string(line_no) + ": " + what);
}

std::vector<std::string> tokenize(const std::string& line) {
    std::vector<std::string> tokens;
    std::istringstream in(line);
    std::string tok;
    while (in >> tok) tokens.push_back(tok);
    return tokens;
}

/// Split `k=v` (returns false when no '=' is present).
bool split_kv(const std::string& tok, std::string& key, std::string& value) {
    auto eq = tok.find('=');
    if (eq == std::string::npos || eq == 0) return false;
    key = tok.substr(0, eq);
    value = tok.substr(eq + 1);
    return true;
}

/// Component reference: `kind k1=v1 k2=v2 ...` from tokens[first...].
ComponentSpec parse_component(const std::vector<std::string>& tokens, std::size_t first,
                              std::size_t line_no) {
    if (first >= tokens.size()) fail(line_no, "missing component kind");
    ComponentSpec spec;
    spec.kind = tokens[first];
    for (std::size_t i = first + 1; i < tokens.size(); ++i) {
        std::string key, value;
        if (!split_kv(tokens[i], key, value))
            fail(line_no, "expected key=value, got '" + tokens[i] + "'");
        spec.params[key] = value;
    }
    return spec;
}

double parse_double(const std::string& text, const std::string& what) {
    char* end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0')
        throw std::runtime_error(what + ": bad number '" + text + "'");
    return v;
}

double parse_double_or_fail(const std::string& text, const std::string& what,
                            std::size_t line_no) {
    try {
        return parse_double(text, what);
    } catch (const std::runtime_error& e) {
        fail(line_no, e.what());
    }
}

std::uint64_t parse_u64_or_fail(const std::string& text, const std::string& what,
                                std::size_t line_no) {
    try {
        return parse_u64(text, what);
    } catch (const std::runtime_error& e) {
        fail(line_no, e.what());
    }
}

// Ceilings on integer keys that size an allocation or a loop, checked at
// parse time so a hostile value (steps=2^64-1, burst=4e9, a 2^64-node
// cycle) ends in a `spec line N` error, exit 2, before anything is built.
// Each sits far above every bundled scenario and benchmark workload (the
// largest: probe-dex's n=100000, long_haul's steps=125000).
constexpr std::uint64_t max_steps = 10'000'000;
constexpr std::uint64_t max_per_step = 100'000;  // burst, insert_burst, batch
constexpr std::uint64_t max_latency = 10'000;

/// One component key's ceiling; a null kind matches every kind (first
/// match wins, so the quadratic generators' rows come first).
struct KeyCeiling {
    const char* kind;
    const char* key;
    std::uint64_t max;
};

constexpr KeyCeiling topology_ceilings[] = {
    {"complete", "n", 4096}, {"erdos-renyi", "n", 20'000},  // ~n^2/2 edges / coin flips
    {nullptr, "n", 1'000'000}, {nullptr, "leaves", 1'000'000},
    {nullptr, "rows", 1024}, {nullptr, "cols", 1024}, {nullptr, "dim", 20},
    {nullptr, "clique", 4096}, {nullptr, "d", 64}, {nullptr, "m", 64}};
constexpr KeyCeiling healer_ceilings[] = {
    {nullptr, "d", 64}, {nullptr, "k", 64}, {nullptr, "retries", 1000},
    {nullptr, "latency", max_latency}};

std::uint64_t parse_capped(const std::string& text, const std::string& what,
                           std::uint64_t max, std::size_t line_no) {
    std::uint64_t v = parse_u64_or_fail(text, what, line_no);
    if (v > max)
        fail(line_no, what + "=" + text + " exceeds the ceiling " + std::to_string(max));
    return v;
}

void check_ceilings(const ComponentSpec& spec, std::span<const KeyCeiling> table,
                    std::size_t line_no) {
    for (const auto& [key, value] : spec.params) {
        auto hit = std::ranges::find_if(table, [&](const KeyCeiling& c) {
            return key == c.key && (c.kind == nullptr || spec.kind == c.kind);
        });
        if (hit != table.end()) parse_capped(value, spec.kind + "." + key, hit->max, line_no);
    }
}

/// `delete_fraction=a..b` ramp bounds. Ramps are validated eagerly (unlike
/// the constant form, whose out-of-range values carry schedule meaning):
/// both ends must be in [0, 1] and ascending — a reversed ramp is almost
/// always a typo, and a decay regime reads better as two phases.
void parse_ramp(const std::string& value, PhaseSpec& phase, std::size_t line_no) {
    auto dots = value.find("..");
    std::string a_text = value.substr(0, dots);
    std::string b_text = value.substr(dots + 2);
    if (a_text.empty() || b_text.empty())
        fail(line_no, "delete_fraction ramp needs both bounds, got '" + value + "'");
    double a = parse_double_or_fail(a_text, "delete_fraction ramp start", line_no);
    double b = parse_double_or_fail(b_text, "delete_fraction ramp end", line_no);
    if (a < 0.0 || b < 0.0)
        fail(line_no, "delete_fraction ramp bounds must be >= 0, got '" + value + "'");
    if (a > 1.0 || b > 1.0)
        fail(line_no, "delete_fraction ramp bounds must be <= 1, got '" + value + "'");
    if (a > b)
        fail(line_no, "delete_fraction ramp bounds reversed ('" + value +
                          "'); split a decay into phases instead");
    phase.delete_fraction = a;
    phase.delete_fraction_end = b;
}

/// `deleter=k1:w1,k2:w2` composite mixture. Every member needs an explicit
/// positive weight; a zero total cannot be normalized into a distribution.
void parse_deleter_mix(const std::string& value, PhaseSpec& phase,
                       std::size_t line_no) {
    phase.deleter_mix.clear();
    double total = 0.0;
    std::size_t begin = 0;
    while (begin <= value.size()) {
        auto comma = value.find(',', begin);
        std::string part = value.substr(
            begin, comma == std::string::npos ? std::string::npos : comma - begin);
        auto colon = part.find(':');
        if (colon == std::string::npos || colon == 0 || colon + 1 == part.size())
            fail(line_no, "composite deleter member needs kind:weight, got '" + part + "'");
        WeightedDeleter member;
        member.component.kind = part.substr(0, colon);
        member.weight = parse_double_or_fail(part.substr(colon + 1),
                                             "deleter weight for '" +
                                                 member.component.kind + "'",
                                             line_no);
        if (member.weight < 0.0)
            fail(line_no, "negative deleter weight for '" + member.component.kind + "'");
        total += member.weight;
        phase.deleter_mix.push_back(std::move(member));
        if (comma == std::string::npos) break;
        begin = comma + 1;
    }
    if (!(total > 0.0))
        fail(line_no, "composite deleter weights sum to zero (not normalizable): '" +
                          value + "'");
}

}  // namespace

std::uint64_t fnv1a64(const std::string& bytes) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::uint64_t parse_u64(const std::string& text, const std::string& what, int base) {
    // from_chars takes no sign, whitespace or prefix for unsigned types
    // (strtoull would wrap "-3" to 2^64-3 and skip leading space).
    std::uint64_t v = 0;
    const char* last = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), last, v, base);
    if (ec == std::errc::result_out_of_range)
        throw std::runtime_error(what + ": integer out of range '" + text + "'");
    if (ec != std::errc() || ptr != last)
        throw std::runtime_error(what + ": bad integer '" + text + "'");
    return v;
}

std::uint64_t ComponentSpec::get_u64(const std::string& key, std::uint64_t fallback) const {
    auto it = params.find(key);
    if (it == params.end()) return fallback;
    return parse_u64(it->second, kind + "." + key);
}

double ComponentSpec::get_double(const std::string& key, double fallback) const {
    auto it = params.find(key);
    if (it == params.end()) return fallback;
    return parse_double(it->second, kind + "." + key);
}

bool ComponentSpec::get_bool(const std::string& key, bool fallback) const {
    auto it = params.find(key);
    if (it == params.end()) return fallback;
    if (it->second == "true" || it->second == "1") return true;
    if (it->second == "false" || it->second == "0") return false;
    throw std::runtime_error(kind + "." + key + ": bad bool '" + it->second + "'");
}

std::string ComponentSpec::to_text() const {
    std::string out = kind;
    for (const auto& [k, v] : params) out += " " + k + "=" + v;
    return out;
}

std::string Expectation::to_text() const {
    switch (kind) {
        case Kind::connected: return "expect connected";
        case Kind::max_degree_ratio_le: return "expect max_degree_ratio <= " + std::to_string(value);
        case Kind::expansion_ge: return "expect expansion >= " + std::to_string(value);
        case Kind::lambda2_ge: return "expect lambda2 >= " + std::to_string(value);
        case Kind::stretch_le: return "expect stretch <= " + std::to_string(value);
        case Kind::nodes_ge: return "expect nodes >= " + std::to_string(value);
        case Kind::peak_slot_factor_le:
            return "expect peak_slot_factor <= " + std::to_string(value);
    }
    return "expect ?";
}

double PhaseSpec::delete_fraction_at(std::size_t step) const {
    if (!delete_fraction_end.has_value() || steps <= 1) return delete_fraction;
    double t = static_cast<double>(step) / static_cast<double>(steps - 1);
    return delete_fraction + (*delete_fraction_end - delete_fraction) * t;
}

std::size_t ScenarioSpec::total_steps() const {
    std::size_t total = 0;
    for (const auto& p : phases) total += p.steps;
    return total;
}

std::string ScenarioSpec::to_text() const {
    std::ostringstream out;
    out << "name " << name << "\n";
    out << "seed " << seed << "\n";
    out << "topology " << topology.to_text() << "\n";
    out << "healer " << healer.to_text() << "\n";
    if (!probes.empty()) {
        out << "probes";
        for (const auto& p : probes) out << " " << p;
        out << "\n";
    }
    if (sample_every != 0) out << "sample_every " << sample_every << "\n";
    if (stretch_samples != 8) out << "stretch_samples " << stretch_samples << "\n";
    for (const auto& p : phases) {
        out << "phase " << p.name << " steps=" << p.steps;
        if (p.seed.has_value()) out << " seed=" << *p.seed;
        if (p.burst != 1) out << " burst=" << p.burst;
        if (p.insert_burst != 0) out << " insert_burst=" << p.insert_burst;
        if (p.batch != 1) out << " batch=" << p.batch;
        if (p.drop.has_value()) out << " drop=" << *p.drop;
        if (p.latency.has_value()) out << " latency=" << *p.latency;
        if (p.compact != 0) out << " compact=" << p.compact;
        out << " delete_fraction=" << p.delete_fraction;
        if (p.delete_fraction_end.has_value()) out << ".." << *p.delete_fraction_end;
        out << " min_nodes=" << p.min_nodes;
        if (p.deleter_mix.empty()) {
            out << " deleter=" << p.deleter.kind;
            for (const auto& [k, v] : p.deleter.params)
                out << " deleter." << k << "=" << v;
        } else {
            out << " deleter=";
            for (std::size_t i = 0; i < p.deleter_mix.size(); ++i)
                out << (i == 0 ? "" : ",") << p.deleter_mix[i].component.kind << ":"
                    << p.deleter_mix[i].weight;
        }
        out << " inserter=" << p.inserter.kind;
        for (const auto& [k, v] : p.inserter.params) out << " inserter." << k << "=" << v;
        out << "\n";
    }
    for (const auto& e : expectations) out << e.to_text() << "\n";
    return out.str();
}

std::uint64_t ScenarioSpec::content_hash() const { return fnv1a64(to_text()); }

ScenarioSpec ScenarioSpec::parse(const std::string& text) {
    ScenarioSpec spec;
    spec.topology = ComponentSpec{};
    spec.healer = ComponentSpec{};
    bool saw_topology = false, saw_healer = false;

    std::istringstream in(text);
    std::string line;
    std::size_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        auto hash = line.find('#');
        if (hash != std::string::npos) line.resize(hash);
        auto tokens = tokenize(line);
        if (tokens.empty()) continue;
        const std::string& directive = tokens[0];

        if (directive == "name") {
            if (tokens.size() != 2) fail(line_no, "name takes one token");
            spec.name = tokens[1];
        } else if (directive == "seed") {
            if (tokens.size() != 2) fail(line_no, "seed takes one integer");
            spec.seed = parse_u64_or_fail(tokens[1], "seed", line_no);
        } else if (directive == "topology") {
            spec.topology = parse_component(tokens, 1, line_no);
            check_ceilings(spec.topology, topology_ceilings, line_no);
            saw_topology = true;
        } else if (directive == "healer") {
            spec.healer = parse_component(tokens, 1, line_no);
            check_ceilings(spec.healer, healer_ceilings, line_no);
            saw_healer = true;
        } else if (directive == "probes") {
            for (std::size_t i = 1; i < tokens.size(); ++i) spec.probes.push_back(tokens[i]);
        } else if (directive == "sample_every") {
            if (tokens.size() != 2) fail(line_no, "sample_every takes one integer");
            spec.sample_every = parse_u64_or_fail(tokens[1], "sample_every", line_no);
        } else if (directive == "stretch_samples") {
            if (tokens.size() != 2) fail(line_no, "stretch_samples takes one integer");
            spec.stretch_samples = parse_u64_or_fail(tokens[1], "stretch_samples", line_no);
        } else if (directive == "phase") {
            if (tokens.size() < 2) fail(line_no, "phase needs a name");
            PhaseSpec phase;
            phase.name = tokens[1];
            phase.deleter = ComponentSpec{"random", {}};
            phase.inserter = ComponentSpec{"random-attach", {}};
            for (std::size_t i = 2; i < tokens.size(); ++i) {
                std::string key, value;
                if (!split_kv(tokens[i], key, value))
                    fail(line_no, "expected key=value, got '" + tokens[i] + "'");
                if (key == "steps") {
                    phase.steps = parse_capped(value, "steps", max_steps, line_no);
                } else if (key == "seed") {
                    phase.seed = parse_u64_or_fail(value, "phase seed", line_no);
                } else if (key == "burst") {
                    phase.burst = parse_capped(value, "burst", max_per_step, line_no);
                    if (phase.burst == 0) fail(line_no, "burst must be >= 1");
                } else if (key == "insert_burst") {
                    phase.insert_burst =
                        parse_capped(value, "insert_burst", max_per_step, line_no);
                } else if (key == "batch") {
                    phase.batch = parse_capped(value, "batch", max_per_step, line_no);
                    if (phase.batch == 0) fail(line_no, "batch must be >= 1");
                } else if (key == "drop") {
                    double p = parse_double_or_fail(value, "drop", line_no);
                    if (p < 0.0 || p > 1.0)
                        fail(line_no, "drop must be in [0, 1], got '" + value + "'");
                    phase.drop = p;
                } else if (key == "latency") {
                    phase.latency = parse_capped(value, "latency", max_latency, line_no);
                } else if (key == "compact") {
                    phase.compact = parse_u64_or_fail(value, "compact", line_no);
                    if (phase.compact == 1)
                        fail(line_no, "compact factor must be 0 (off) or >= 2");
                } else if (key == "delete_fraction") {
                    if (value.find("..") != std::string::npos)
                        parse_ramp(value, phase, line_no);
                    else
                        phase.delete_fraction = parse_double_or_fail(value, "delete_fraction", line_no);
                } else if (key == "min_nodes") {
                    phase.min_nodes = parse_u64_or_fail(value, "min_nodes", line_no);
                } else if (key == "deleter") {
                    if (value.find(':') != std::string::npos ||
                        value.find(',') != std::string::npos) {
                        parse_deleter_mix(value, phase, line_no);
                    } else {
                        // Last deleter= wins in either direction: a plain
                        // kind replaces an earlier mixture too.
                        phase.deleter_mix.clear();
                        phase.deleter.kind = value;
                    }
                } else if (key == "inserter") {
                    phase.inserter.kind = value;
                } else if (key.rfind("deleter.", 0) == 0) {
                    phase.deleter.params[key.substr(8)] = value;
                } else if (key.rfind("inserter.", 0) == 0) {
                    phase.inserter.params[key.substr(9)] = value;
                } else if (key == "k") {
                    // Sugar: bare k applies to the inserter's attach count.
                    phase.inserter.params["k"] = value;
                } else {
                    fail(line_no, "unknown phase key '" + key + "'");
                }
            }
            if (phase.steps == 0) fail(line_no, "phase needs steps=N (N >= 1)");
            // Mixture members are kind-only; dotted params have no way to
            // name which member they configure.
            if (!phase.deleter_mix.empty() && !phase.deleter.params.empty())
                fail(line_no, "composite deleter takes no deleter.* params");
            spec.phases.push_back(std::move(phase));
        } else if (directive == "expect") {
            if (tokens.size() < 2) fail(line_no, "expect needs a metric");
            Expectation e;
            const std::string& metric = tokens[1];
            if (metric == "connected") {
                if (tokens.size() != 2) fail(line_no, "expect connected takes no value");
                e.kind = Expectation::Kind::connected;
            } else {
                // `expect metric <= value` / `expect metric >= value`.
                if (tokens.size() != 4) fail(line_no, "expect " + metric + " needs <op> <value>");
                const std::string& op = tokens[2];
                e.value = parse_double_or_fail(tokens[3], "expect " + metric, line_no);
                if (metric == "max_degree_ratio" && op == "<=") {
                    e.kind = Expectation::Kind::max_degree_ratio_le;
                } else if (metric == "expansion" && op == ">=") {
                    e.kind = Expectation::Kind::expansion_ge;
                } else if (metric == "lambda2" && op == ">=") {
                    e.kind = Expectation::Kind::lambda2_ge;
                } else if (metric == "stretch" && op == "<=") {
                    e.kind = Expectation::Kind::stretch_le;
                } else if (metric == "nodes" && op == ">=") {
                    e.kind = Expectation::Kind::nodes_ge;
                } else if (metric == "peak_slot_factor" && op == "<=") {
                    e.kind = Expectation::Kind::peak_slot_factor_le;
                } else {
                    fail(line_no, "unsupported expectation '" + metric + " " + op + "'");
                }
            }
            spec.expectations.push_back(e);
        } else {
            fail(line_no, "unknown directive '" + directive + "'");
        }
    }

    if (!saw_topology) throw std::runtime_error("spec: missing 'topology' line");
    if (!saw_healer) throw std::runtime_error("spec: missing 'healer' line");
    if (spec.phases.empty()) throw std::runtime_error("spec: needs at least one 'phase'");
    return spec;
}

ScenarioSpec ScenarioSpec::parse_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open spec file: " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return parse(buffer.str());
}

}  // namespace xheal::scenario
