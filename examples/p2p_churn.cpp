// P2P overlay under churn — the paper's motivating scenario (the 2007
// Skype outage): peers continuously join and leave; the overlay must stay
// connected with good expansion so routing and gossip keep working.
//
// The whole experiment is one declarative scenario (scenarios/p2p_churn.scn
// is the file-based twin): an H-graph overlay, a 50/50 join-leave phase,
// and periodic connectivity/expansion/stretch probes, executed by the
// scenario engine. Exits 1 if any sample or the final overlay is
// partitioned.
//
//   ./p2p_churn [steps] [seed]
#include <cstdlib>
#include <iostream>

#include "graph/algorithms.hpp"
#include "scenario/runner.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
    using namespace xheal;

    std::size_t steps = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 300;
    std::uint64_t seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 7;

    scenario::ScenarioSpec spec;
    spec.name = "p2p-churn";
    spec.seed = seed;
    spec.topology = {"hgraph", {{"n", "48"}, {"d", "3"}}};
    spec.healer = {"xheal", {{"d", "3"}}};
    spec.probes = {"connected", "degree", "expansion", "lambda2", "stretch"};
    spec.sample_every = steps / 10 == 0 ? 1 : steps / 10;
    scenario::PhaseSpec churn;
    churn.name = "churn";
    churn.steps = steps;
    churn.delete_fraction = 0.5;
    churn.min_nodes = 8;
    churn.deleter = {"random", {}};
    churn.inserter = {"preferential-attach", {{"k", "3"}}};  // find well-known peers
    spec.phases.push_back(churn);

    scenario::ScenarioRunner runner(spec);
    auto result = runner.run();

    util::Table table({"t", "peers", "edges", "parts", "h(G)~", "lambda2", "max-deg-ratio",
                       "stretch"});
    const auto& session = runner.session();
    bool connected = graph::is_connected(session.current());
    for (const auto& s : result.samples) {
        connected = connected && s.connected();
        table.row()
            .add(s.step)
            .add(s.nodes)
            .add(s.edges)
            .add(s.components)
            .add(s.expansion, 3)
            .add(s.lambda2, 4)
            .add(s.max_degree_ratio, 2)
            .add(s.stretch, 2);
    }
    std::cout << "P2P overlay, 50/50 join-leave churn, " << steps << " events:\n\n";
    table.print(std::cout);

    if (!connected) {
        std::cout << "\nthe overlay PARTITIONED: a sample or the final graph has more "
                     "than one component\n";
        return 1;
    }
    std::cout << "\nthe overlay never partitions: " << session.deletions()
              << " peer crashes healed, amortized "
              << static_cast<double>(session.totals().edges_added) /
                     static_cast<double>(std::max<std::size_t>(1, session.deletions()))
              << " repair edges per crash\n";
    return 0;
}
