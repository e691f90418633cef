// String-keyed factories mapping spec component references onto the
// concrete workload generators, adversary strategies and healers, so that
// scenario specs name components instead of linking them (DESIGN.md
// decision 5). Every factory throws std::runtime_error on an unknown kind
// or out-of-contract parameters, and check_params rejects a param no kind
// reads before anything is built; the *_names() listings feed `xheal_run
// list`.
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

/// Throw std::runtime_error naming the slot, kind and key when the spec's
/// topology, healer (with a `faulty` healer's forwarded inner.* params), or
/// any phase's deleter or inserter carries a param its kind does not read
/// — a misspelt key would otherwise run silently at its default. Unknown
/// kinds are left to the factories below.
void check_params(const ScenarioSpec& spec);

/// Build the initial topology named by `spec`. Random topologies draw from
/// `rng`. Kinds (parameters with defaults):
///   path n=16 | cycle n=16 | star leaves=16 | complete n=8
///   grid rows=4 cols=4 | torus rows=4 cols=4 | hypercube dim=4
///   binary-tree n=15 | erdos-renyi n=64 p=0.1 | random-regular n=64 d=4
///   barabasi-albert n=64 m=2 | dumbbell clique=8 | petersen
///   hgraph n=48 d=3
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

/// Kinds: xheal | xheal-dist (params d=4 seed=<spec seed>),
/// no-heal | line | cycle | star | forgiving-tree,
/// random-match (k=3 seed=<spec seed>),
/// faulty (params inner=cycle drop_every=3 inner.*=... — test-only fault
/// injection wrapping a whitelisted stateless baseline, inner.* params
/// forwarded to it; see core/fault_injection.hpp).
/// `default_seed` seeds healers whose spec omits seed= (the scenario seed).
HealerHandle make_healer(const ComponentSpec& spec, std::uint64_t default_seed);
std::vector<std::string> healer_names();

/// Kinds: random | max-degree | min-degree | cut-point | colored-degree |
/// bridge-hunter. bridge-hunter requires a cloud registry (xheal-family
/// healer) and throws otherwise.
std::unique_ptr<adversary::DeletionStrategy> make_deleter(
    const ComponentSpec& spec, const core::CloudRegistry* registry);
std::vector<std::string> deleter_names();

/// The deleter a phase names: the single `deleter` component, or an
/// adversary::CompositeDeletion over `deleter_mix` when the phase carries a
/// mixture (grammar v2). Member kinds go through make_deleter, so unknown
/// kinds and capability requirements throw identically in both forms.
std::unique_ptr<adversary::DeletionStrategy> make_phase_deleter(
    const PhaseSpec& phase, const core::CloudRegistry* registry);

/// Kinds: random-attach | preferential-attach (param k=3).
std::unique_ptr<adversary::InsertionStrategy> make_inserter(const ComponentSpec& spec);
std::vector<std::string> inserter_names();

}  // namespace xheal::scenario
