#include "scenario/registry.hpp"

#include <algorithm>
#include <stdexcept>

#include "baseline/baselines.hpp"
#include "core/distributed_xheal.hpp"
#include "core/fault_injection.hpp"
#include "core/xheal_healer.hpp"
#include "workload/generators.hpp"

namespace xheal::scenario {

namespace {

/// How check_params validates a param's value before anything is built.
enum class Value { count, real, kind };

/// One param a kind's factory reads (a count unless marked otherwise).
struct Param {
    Param(const char* key, Value value = Value::count) : key(key), value(value) {}
    const char* key;
    Value value;
};

/// One row of a component slot's table: the kind, the params its factory
/// reads (a param a factory starts reading is added here), its factory and
/// the capability bits the checks need.
template <typename Factory>
struct Kind {
    const char* kind;
    std::vector<Param> params;
    Factory make;
    /// Healers: carries a cloud registry (the xheal family). Deleters: needs one.
    bool registry = false;
    /// Healers: stateless, so `faulty` may skip its repairs. Skipping a
    /// stateful healer's on_delete desynchronizes its bookkeeping from the
    /// graph (fault_injection.hpp), so a kind opts in here explicitly.
    bool wrappable = false;
};

// One table per slot, in `xheal_run list` order.

using namespace workload;

const Kind<graph::Graph (*)(const ComponentSpec&, util::Rng&)> topology_kinds[] = {
    {"path", {"n"}, [](auto& s, auto&) { return make_path(s.get_u64("n", 16)); }},
    {"cycle", {"n"}, [](auto& s, auto&) { return make_cycle(s.get_u64("n", 16)); }},
    {"star", {"leaves"}, [](auto& s, auto&) { return make_star(s.get_u64("leaves", 16)); }},
    {"complete", {"n"}, [](auto& s, auto&) { return make_complete(s.get_u64("n", 8)); }},
    {"grid", {"rows", "cols"},
     [](auto& s, auto&) { return make_grid(s.get_u64("rows", 4), s.get_u64("cols", 4)); }},
    {"torus", {"rows", "cols"},
     [](auto& s, auto&) { return make_torus(s.get_u64("rows", 4), s.get_u64("cols", 4)); }},
    {"hypercube", {"dim"}, [](auto& s, auto&) { return make_hypercube(s.get_u64("dim", 4)); }},
    {"binary-tree", {"n"}, [](auto& s, auto&) { return make_binary_tree(s.get_u64("n", 15)); }},
    {"erdos-renyi", {"n", {"p", Value::real}},
     [](auto& s, auto& rng) {
         return make_erdos_renyi(s.get_u64("n", 64), s.get_double("p", 0.1), rng);
     }},
    {"random-regular", {"n", "d"},
     [](auto& s, auto& rng) {
         return make_random_regular(s.get_u64("n", 64), s.get_u64("d", 4), rng);
     }},
    {"barabasi-albert", {"n", "m"},
     [](auto& s, auto& rng) {
         return make_barabasi_albert(s.get_u64("n", 64), s.get_u64("m", 2), rng);
     }},
    {"dumbbell", {"clique"}, [](auto& s, auto&) { return make_dumbbell(s.get_u64("clique", 8)); }},
    {"petersen", {}, [](auto&, auto&) { return make_petersen(); }},
    {"hgraph", {"n", "d"},
     [](auto& s, auto& rng) {
         return make_hgraph_graph(s.get_u64("n", 48), s.get_u64("d", 3), rng);
     }},
};

/// The xheal family: the healer plus its cloud registry and kappa.
template <typename H>
HealerHandle xheal_family(const ComponentSpec& spec, std::uint64_t default_seed) {
    core::XhealConfig config;
    config.d = spec.get_u64("d", 4);
    config.seed = spec.get_u64("seed", default_seed);
    auto healer = std::make_unique<H>(config);
    HealerHandle handle{nullptr, &healer->registry(), healer->kappa()};
    handle.healer = std::move(healer);
    return handle;
}

template <typename H>
HealerHandle baseline_healer(const ComponentSpec&, std::uint64_t) {
    return {std::make_unique<H>()};
}

HealerHandle make_faulty(const ComponentSpec& spec, std::uint64_t default_seed);

// xheal-dist takes its network faults from phase keys (drop= / latency=),
// applied by the stepper at every phase entry.
const Kind<HealerHandle (*)(const ComponentSpec&, std::uint64_t)> healer_kinds[] = {
    {"xheal", {"d", "seed"}, xheal_family<core::XhealHealer>, true},
    {"xheal-dist", {"d", "seed"}, xheal_family<core::DistributedXheal>, true},
    {"no-heal", {}, baseline_healer<baseline::NoHealHealer>, false, true},
    {"line", {}, baseline_healer<baseline::LineHealer>, false, true},
    {"cycle", {}, baseline_healer<baseline::CycleHealer>, false, true},
    {"star", {}, baseline_healer<baseline::StarHealer>, false, true},
    {"forgiving-tree", {}, baseline_healer<baseline::ForgivingTreeStyleHealer>, false, true},
    {"random-match", {"k", "seed"},
     [](auto& s, std::uint64_t default_seed) {
         return HealerHandle{std::make_unique<baseline::RandomMatchHealer>(
             s.get_u64("k", 3), s.get_u64("seed", default_seed))};
     },
     false, true},
    {"faulty", {{"inner", Value::kind}, "drop_every"}, make_faulty},
};

template <typename S>
std::unique_ptr<adversary::DeletionStrategy> deleter(const core::CloudRegistry*) {
    return std::make_unique<S>();
}

const Kind<std::unique_ptr<adversary::DeletionStrategy> (*)(const core::CloudRegistry*)>
    deleter_kinds[] = {
        {"random", {}, deleter<adversary::RandomDeletion>},
        {"max-degree", {}, deleter<adversary::MaxDegreeDeletion>},
        {"min-degree", {}, deleter<adversary::MinDegreeDeletion>},
        {"cut-point", {}, deleter<adversary::CutPointDeletion>},
        {"colored-degree", {}, deleter<adversary::ColoredDegreeDeletion>},
        {"bridge-hunter", {},
         [](auto* registry) -> std::unique_ptr<adversary::DeletionStrategy> {
             return std::make_unique<adversary::BridgeHunterDeletion>(registry);
         },
         true},
};

template <typename S>
std::unique_ptr<adversary::InsertionStrategy> inserter(const ComponentSpec& spec) {
    return std::make_unique<S>(spec.get_u64("k", 3));
}

const Kind<std::unique_ptr<adversary::InsertionStrategy> (*)(const ComponentSpec&)>
    inserter_kinds[] = {
        {"random-attach", {"k"}, inserter<adversary::RandomAttach>},
        {"preferential-attach", {"k"}, inserter<adversary::PreferentialAttach>},
};

/// The row of `kind` in one slot's table. `where` prefixes the message
/// (the phase of a deleter or inserter).
template <typename Rows>
const auto& find_kind(const Rows& rows, const char* slot, const std::string& kind,
                      const std::string& where = "") {
    for (const auto& row : rows)
        if (kind == row.kind) return row;
    throw std::runtime_error(where + "unknown " + slot + " kind: " + quote(kind));
}

template <typename Rows>
std::vector<std::string> names(const Rows& rows) {
    std::vector<std::string> out;
    for (const auto& row : rows) out.push_back(row.kind);
    return out;
}

/// Throw unless `c` names a kind of `rows` and every param of `c` is one
/// that kind reads, with a well-formed value. `where` and `prefix` only
/// shape the message: the phase, and the key's spelling in the spec
/// (`deleter.`, `inner.`, ...). A `faulty` healer's inner.* params are the
/// inner kind's to check.
template <typename Rows>
const auto& check_component(const Rows& rows, const char* slot, const ComponentSpec& c,
                            const char* prefix = "", const std::string& where = "") {
    const auto& row = find_kind(rows, slot, c.kind, where);
    for (const auto& [key, value] : c.params) {
        if (c.kind == "faulty" && key.rfind("inner.", 0) == 0) continue;
        auto param = std::find_if(row.params.begin(), row.params.end(),
                                  [&](const Param& p) { return key == p.key; });
        if (param == row.params.end())
            throw std::runtime_error(where + slot + " " + quote(c.kind) +
                                     " does not read param " + quote(prefix + key));
        if (param->value == Value::count) c.get_u64(key, 0);  // throws naming kind.key
        if (param->value == Value::real) c.get_double(key, 0.0);
    }
    return row;
}

/// The healer a `faulty` spec wraps: kind `inner` (default cycle) with the
/// `inner.*` params forwarded.
ComponentSpec faulty_inner(const ComponentSpec& spec) {
    ComponentSpec inner{spec.has("inner") ? spec.params.at("inner") : "cycle", {}};
    for (const auto& [key, value] : spec.params)
        if (key.rfind("inner.", 0) == 0) inner.params[key.substr(6)] = value;
    return inner;
}

/// The row of a `faulty` healer's inner kind, which must be wrappable.
const auto& wrappable_kind(const std::string& kind) {
    const auto& row = find_kind(healer_kinds, "faulty inner healer", kind);
    if (!row.wrappable) {
        std::string list;
        for (const auto& k : healer_kinds)
            if (k.wrappable) list.append(list.empty() ? "" : " ").append(k.kind);
        throw std::runtime_error("faulty healer: inner must be a stateless baseline (" + list +
                                 "), got " + quote(kind));
    }
    return row;
}

/// Test-only fault injection for the trace-forensics layer: wraps a
/// stateless healer and skips its repair every drop_every-th deletion.
/// Registered so shrunk reproducers can name the broken healer in a
/// standalone .scn.
HealerHandle make_faulty(const ComponentSpec& spec, std::uint64_t default_seed) {
    ComponentSpec inner_spec = faulty_inner(spec);
    HealerHandle inner = wrappable_kind(inner_spec.kind).make(inner_spec, default_seed);
    return {std::make_unique<core::FaultInjectingHealer>(std::move(inner.healer),
                                                         spec.get_u64("drop_every", 3)),
            nullptr, inner.kappa};
}

}  // namespace

void check_params(const ScenarioSpec& spec) {
    check_component(topology_kinds, "topology", spec.topology);
    const auto& healer = check_component(healer_kinds, "healer", spec.healer);
    if (spec.healer.kind == "faulty") {
        ComponentSpec inner = faulty_inner(spec.healer);
        wrappable_kind(inner.kind);
        check_component(healer_kinds, "faulty inner healer", inner, "inner.");
    }
    for (const std::string& name : spec.probes)
        if (!find_probe(name)) throw std::runtime_error("unknown probe: " + quote(name));
    for (const PhaseSpec& phase : spec.phases) {
        const std::string where = "phase " + quote(phase.name) + " ";
        auto check_deleter = [&](const ComponentSpec& c) {
            if (check_component(deleter_kinds, "deleter", c, "deleter.", where).registry &&
                !healer.registry)
                throw std::runtime_error(where + "deleter " + quote(c.kind) +
                                         " requires an xheal-family healer (healer " +
                                         quote(spec.healer.kind) + " has no cloud registry)");
        };
        if (phase.deleter_mix.empty()) check_deleter(phase.deleter);
        for (const WeightedDeleter& w : phase.deleter_mix) check_deleter(w.component);
        check_component(inserter_kinds, "inserter", phase.inserter, "inserter.", where);
    }
}

graph::Graph make_topology(const ComponentSpec& spec, util::Rng& rng) {
    return find_kind(topology_kinds, "topology", spec.kind).make(spec, rng);
}

std::vector<std::string> topology_names() { return names(topology_kinds); }

HealerHandle make_healer(const ComponentSpec& spec, std::uint64_t default_seed) {
    return find_kind(healer_kinds, "healer", spec.kind).make(spec, default_seed);
}

std::vector<std::string> healer_names() { return names(healer_kinds); }

std::unique_ptr<adversary::DeletionStrategy> make_deleter(
    const ComponentSpec& spec, const core::CloudRegistry* registry) {
    const auto& row = find_kind(deleter_kinds, "deleter", spec.kind);
    if (row.registry && registry == nullptr)
        throw std::runtime_error(spec.kind +
                                 " deleter requires an xheal-family healer (no cloud registry)");
    return row.make(registry);
}

std::vector<std::string> deleter_names() { return names(deleter_kinds); }

std::unique_ptr<adversary::DeletionStrategy> make_phase_deleter(
    const PhaseSpec& phase, const core::CloudRegistry* registry) {
    if (phase.deleter_mix.empty()) return make_deleter(phase.deleter, registry);
    std::vector<adversary::CompositeDeletion::Member> members;
    for (const WeightedDeleter& w : phase.deleter_mix)
        members.push_back({make_deleter(w.component, registry), w.weight});
    return std::make_unique<adversary::CompositeDeletion>(std::move(members));
}

std::unique_ptr<adversary::InsertionStrategy> make_inserter(const ComponentSpec& spec) {
    return find_kind(inserter_kinds, "inserter", spec.kind).make(spec);
}

std::vector<std::string> inserter_names() { return names(inserter_kinds); }

}  // namespace xheal::scenario
