// String-keyed factories mapping spec component references onto the
// concrete workload generators, adversary strategies and healers, so that
// scenario specs name components instead of linking them (DESIGN.md
// decision 5). Each slot (topology, healer, deleter, inserter) is one table
// whose rows hold a kind, the params its factory reads and the capability
// bits the checks need; the factories, the *_names() listings behind
// `xheal_run list` and check_params all read it. check_params is the gate:
// it rejects an unknown kind, probe or param before anything is built, and
// every factory still throws std::runtime_error on an unknown kind.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "adversary/adversary.hpp"
#include "core/cloud_registry.hpp"
#include "core/healer.hpp"
#include "graph/graph.hpp"
#include "scenario/spec.hpp"
#include "util/rng.hpp"

namespace xheal::scenario {

/// Throw std::runtime_error naming the slot and kind (and phase) unless
/// every component of `spec`, `faulty` inner healers and mixture members
/// included, names a kind of its slot and carries only params that kind
/// reads, with well-formed values (a misspelt key would otherwise run at
/// its default); every probe is in probe_names; `faulty` wraps a stateless
/// healer; and bridge-hunter runs under an xheal-family healer.
void check_params(const ScenarioSpec& spec);

/// Build the initial topology named by `spec`; random topologies draw
/// from `rng`. Each slot's kinds, params and defaults are its table's rows
/// in registry.cpp (`xheal_run list` prints the kinds).
graph::Graph make_topology(const ComponentSpec& spec, util::Rng& rng);
std::vector<std::string> topology_names();

/// A constructed healer plus the capability handles some strategies and
/// probes need: the cloud registry (xheal family only, else nullptr) and
/// kappa (healer degree-overhead factor; 1 for baselines).
struct HealerHandle {
    std::unique_ptr<core::Healer> healer;
    const core::CloudRegistry* registry = nullptr;
    std::size_t kappa = 1;
};

/// `default_seed` seeds healers whose spec omits seed= (the scenario
/// seed). `faulty` (inner=cycle drop_every=3 inner.*=...) is test-only
/// fault injection around a stateless healer (core/fault_injection.hpp).
HealerHandle make_healer(const ComponentSpec& spec, std::uint64_t default_seed);
std::vector<std::string> healer_names();

/// bridge-hunter requires a cloud registry (an xheal-family healer) and
/// throws without one.
std::unique_ptr<adversary::DeletionStrategy> make_deleter(
    const ComponentSpec& spec, const core::CloudRegistry* registry);
std::vector<std::string> deleter_names();

/// The deleter a phase names: the single `deleter` component, or an
/// adversary::CompositeDeletion over `deleter_mix` when the phase carries a
/// mixture (grammar v2). Member kinds go through make_deleter.
std::unique_ptr<adversary::DeletionStrategy> make_phase_deleter(
    const PhaseSpec& phase, const core::CloudRegistry* registry);

std::unique_ptr<adversary::InsertionStrategy> make_inserter(const ComponentSpec& spec);
std::vector<std::string> inserter_names();

}  // namespace xheal::scenario
