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

[[noreturn]] void unknown(const std::string& what, const std::string& kind) {
    throw std::runtime_error("unknown " + what + " kind: '" + kind + "'");
}

core::XhealConfig xheal_config(const ComponentSpec& spec, std::uint64_t default_seed) {
    core::XhealConfig config;
    config.d = spec.get_u64("d", 4);
    config.seed = spec.get_u64("seed", default_seed);
    return config;
}

/// Every kind of one component slot with the params its factory below
/// reads, in `xheal_run list` order: the record both check_params and the
/// *_names() listings read. A param a factory starts reading is added here.
using KindParams = std::vector<std::pair<std::string, std::vector<std::string>>>;

const KindParams topology_kinds = {
    {"path", {"n"}},
    {"cycle", {"n"}},
    {"star", {"leaves"}},
    {"complete", {"n"}},
    {"grid", {"rows", "cols"}},
    {"torus", {"rows", "cols"}},
    {"hypercube", {"dim"}},
    {"binary-tree", {"n"}},
    {"erdos-renyi", {"n", "p"}},
    {"random-regular", {"n", "d"}},
    {"barabasi-albert", {"n", "m"}},
    {"dumbbell", {"clique"}},
    {"petersen", {}},
    {"hgraph", {"n", "d"}}};

const KindParams healer_kinds = {
    {"xheal", {"d", "seed"}},
    {"xheal-dist", {"d", "seed"}},
    {"no-heal", {}},
    {"line", {}},
    {"cycle", {}},
    {"star", {}},
    {"forgiving-tree", {}},
    {"random-match", {"k", "seed"}},
    {"faulty", {"inner", "drop_every"}}};  // plus inner.*, forwarded

const KindParams deleter_kinds = {{"random", {}},         {"max-degree", {}},
                                  {"min-degree", {}},     {"cut-point", {}},
                                  {"colored-degree", {}}, {"bridge-hunter", {}}};

const KindParams inserter_kinds = {{"random-attach", {"k"}},
                                   {"preferential-attach", {"k"}}};

std::vector<std::string> names(const KindParams& kinds) {
    std::vector<std::string> out;
    for (const auto& kind : kinds) out.push_back(kind.first);
    return out;
}

/// Throw unless every param of `c` is one its kind reads. `where` and
/// `prefix` only shape the message: the phase, and the key's spelling in
/// the spec (`deleter.`, `inner.`, ...). Unknown kinds pass: their factory
/// rejects them.
void check_component(const KindParams& kinds, const char* slot, const ComponentSpec& c,
                     const char* prefix = "", const std::string* where = nullptr) {
    auto kind = std::find_if(kinds.begin(), kinds.end(),
                             [&](const auto& k) { return k.first == c.kind; });
    if (kind == kinds.end()) return;
    for (const auto& [key, value] : c.params) {
        bool read = std::find(kind->second.begin(), kind->second.end(), key) !=
                        kind->second.end() ||
                    (c.kind == "faulty" && key.rfind("inner.", 0) == 0);
        if (!read)
            throw std::runtime_error(
                (where != nullptr ? "phase '" + *where + "' " : std::string()) + slot +
                " '" + c.kind + "' does not read param '" + prefix + key + "'");
    }
}

/// The healer a `faulty` spec wraps: kind `inner` (default cycle) with the
/// `inner.*` params forwarded.
ComponentSpec faulty_inner(const ComponentSpec& spec) {
    ComponentSpec inner{spec.has("inner") ? spec.params.at("inner") : "cycle", {}};
    for (const auto& [key, value] : spec.params)
        if (key.rfind("inner.", 0) == 0) inner.params[key.substr(6)] = value;
    return inner;
}

}  // namespace

void check_params(const ScenarioSpec& spec) {
    check_component(topology_kinds, "topology", spec.topology);
    check_component(healer_kinds, "healer", spec.healer);
    if (spec.healer.kind == "faulty")
        check_component(healer_kinds, "faulty inner healer", faulty_inner(spec.healer),
                        "inner.");
    for (const PhaseSpec& phase : spec.phases) {
        check_component(deleter_kinds, "deleter", phase.deleter, "deleter.", &phase.name);
        for (const WeightedDeleter& w : phase.deleter_mix)
            check_component(deleter_kinds, "deleter", w.component, "deleter.", &phase.name);
        check_component(inserter_kinds, "inserter", phase.inserter, "inserter.",
                        &phase.name);
    }
}

graph::Graph make_topology(const ComponentSpec& spec, util::Rng& rng) {
    const std::string& kind = spec.kind;
    if (kind == "path") return workload::make_path(spec.get_u64("n", 16));
    if (kind == "cycle") return workload::make_cycle(spec.get_u64("n", 16));
    if (kind == "star") return workload::make_star(spec.get_u64("leaves", 16));
    if (kind == "complete") return workload::make_complete(spec.get_u64("n", 8));
    if (kind == "grid")
        return workload::make_grid(spec.get_u64("rows", 4), spec.get_u64("cols", 4));
    if (kind == "torus")
        return workload::make_torus(spec.get_u64("rows", 4), spec.get_u64("cols", 4));
    if (kind == "hypercube") return workload::make_hypercube(spec.get_u64("dim", 4));
    if (kind == "binary-tree") return workload::make_binary_tree(spec.get_u64("n", 15));
    if (kind == "erdos-renyi")
        return workload::make_erdos_renyi(spec.get_u64("n", 64), spec.get_double("p", 0.1),
                                          rng);
    if (kind == "random-regular")
        return workload::make_random_regular(spec.get_u64("n", 64), spec.get_u64("d", 4),
                                             rng);
    if (kind == "barabasi-albert")
        return workload::make_barabasi_albert(spec.get_u64("n", 64), spec.get_u64("m", 2),
                                              rng);
    if (kind == "dumbbell") return workload::make_dumbbell(spec.get_u64("clique", 8));
    if (kind == "petersen") return workload::make_petersen();
    if (kind == "hgraph")
        return workload::make_hgraph_graph(spec.get_u64("n", 48), spec.get_u64("d", 3), rng);
    unknown("topology", kind);
}

std::vector<std::string> topology_names() { return names(topology_kinds); }

HealerHandle make_healer(const ComponentSpec& spec, std::uint64_t default_seed) {
    const std::string& kind = spec.kind;
    HealerHandle handle;
    if (kind == "xheal") {
        auto healer = std::make_unique<core::XhealHealer>(xheal_config(spec, default_seed));
        handle.registry = &healer->registry();
        handle.kappa = healer->kappa();
        handle.healer = std::move(healer);
    } else if (kind == "xheal-dist") {
        // Network faults are phase keys (drop= / latency=), applied by the
        // stepper at every phase entry.
        auto healer =
            std::make_unique<core::DistributedXheal>(xheal_config(spec, default_seed));
        handle.registry = &healer->registry();
        handle.kappa = healer->kappa();
        handle.healer = std::move(healer);
    } else if (kind == "no-heal") {
        handle.healer = std::make_unique<baseline::NoHealHealer>();
    } else if (kind == "line") {
        handle.healer = std::make_unique<baseline::LineHealer>();
    } else if (kind == "cycle") {
        handle.healer = std::make_unique<baseline::CycleHealer>();
    } else if (kind == "star") {
        handle.healer = std::make_unique<baseline::StarHealer>();
    } else if (kind == "forgiving-tree") {
        handle.healer = std::make_unique<baseline::ForgivingTreeStyleHealer>();
    } else if (kind == "random-match") {
        handle.healer = std::make_unique<baseline::RandomMatchHealer>(
            spec.get_u64("k", 3), spec.get_u64("seed", default_seed));
    } else if (kind == "faulty") {
        // Test-only fault injection for the trace-forensics layer: wraps a
        // *stateless* baseline healer and skips its repair every
        // drop_every-th deletion. Registered so shrunk reproducers can name
        // the broken healer in a standalone .scn. Whitelist, not blacklist:
        // skipping a stateful healer's on_delete desynchronizes its
        // bookkeeping from the graph (fault_injection.hpp), so any future
        // healer kind must opt in here explicitly.
        static const std::vector<std::string> stateless = {
            "no-heal", "line", "cycle", "star", "forgiving-tree", "random-match"};
        ComponentSpec inner_spec = faulty_inner(spec);
        if (std::find(stateless.begin(), stateless.end(), inner_spec.kind) ==
            stateless.end()) {
            std::string list;
            for (const auto& s : stateless) list += (list.empty() ? "" : " ") + s;
            throw std::runtime_error("faulty healer: inner must be a stateless baseline (" +
                                     list + "), got '" + inner_spec.kind + "'");
        }
        HealerHandle inner = make_healer(inner_spec, default_seed);
        handle.kappa = inner.kappa;
        handle.healer = std::make_unique<core::FaultInjectingHealer>(
            std::move(inner.healer), spec.get_u64("drop_every", 3));
    } else {
        unknown("healer", kind);
    }
    return handle;
}

std::vector<std::string> healer_names() { return names(healer_kinds); }

std::unique_ptr<adversary::DeletionStrategy> make_deleter(
    const ComponentSpec& spec, const core::CloudRegistry* registry) {
    const std::string& kind = spec.kind;
    if (kind == "random") return std::make_unique<adversary::RandomDeletion>();
    if (kind == "max-degree") return std::make_unique<adversary::MaxDegreeDeletion>();
    if (kind == "min-degree") return std::make_unique<adversary::MinDegreeDeletion>();
    if (kind == "cut-point") return std::make_unique<adversary::CutPointDeletion>();
    if (kind == "colored-degree") return std::make_unique<adversary::ColoredDegreeDeletion>();
    if (kind == "bridge-hunter") {
        if (registry == nullptr)
            throw std::runtime_error(
                "bridge-hunter deleter requires an xheal-family healer (no cloud registry)");
        return std::make_unique<adversary::BridgeHunterDeletion>(registry);
    }
    unknown("deleter", kind);
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
    const std::string& kind = spec.kind;
    std::size_t k = spec.get_u64("k", 3);
    if (kind == "random-attach") return std::make_unique<adversary::RandomAttach>(k);
    if (kind == "preferential-attach")
        return std::make_unique<adversary::PreferentialAttach>(k);
    unknown("inserter", kind);
}

std::vector<std::string> inserter_names() { return names(inserter_kinds); }

}  // namespace xheal::scenario
