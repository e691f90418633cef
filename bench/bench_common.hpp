// Shared conventions for the experiment benches. Every bench binary
// regenerates one experiment from DESIGN.md section 3: it prints the
// workload, the paper's claimed bound, the measured values, and a SHAPE
// verdict line ("who wins / growth rate"), machine-greppable as
// "VERDICT <exp-id> PASS|FAIL".
#pragma once

#include <iostream>
#include <string>

#include "scenario/spec.hpp"
#include "util/table.hpp"

namespace xheal::bench {

inline void experiment_header(const std::string& id, const std::string& claim) {
    std::cout << "==============================================================\n";
    std::cout << "EXPERIMENT " << id << "\n";
    std::cout << "paper claim: " << claim << "\n";
    std::cout << "==============================================================\n";
}

/// A one-phase deletion-only spec: `steps` deletions by `deleter`, each
/// skipped once the graph is down to `min_nodes` nodes.
inline scenario::ScenarioSpec deletion_spec(const std::string& name, std::uint64_t seed,
                                            scenario::ComponentSpec topology,
                                            scenario::ComponentSpec healer,
                                            const std::string& deleter, std::size_t steps,
                                            std::size_t min_nodes) {
    scenario::ScenarioSpec spec;
    spec.name = name;
    spec.seed = seed;
    spec.topology = std::move(topology);
    spec.healer = std::move(healer);
    scenario::PhaseSpec phase;
    phase.name = "delete";
    phase.steps = steps;
    phase.delete_fraction = 1.0;
    phase.min_nodes = min_nodes;
    phase.deleter = {deleter, {}};
    spec.phases.push_back(std::move(phase));
    return spec;
}

inline bool verdict(const std::string& id, bool pass, const std::string& note) {
    std::cout << "VERDICT " << id << " " << (pass ? "PASS" : "FAIL") << " — " << note
              << "\n\n";
    return pass;
}

}  // namespace xheal::bench
