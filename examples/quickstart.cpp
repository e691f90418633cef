// Quickstart: create a network, let an adversary delete nodes, and watch
// Xheal keep it connected with bounded degrees and healthy expansion.
// Exits 1 if any step leaves the network disconnected.
//
//   ./quickstart [n] [deletions] [seed]
#include <cstdlib>
#include <iostream>

#include "core/metrics.hpp"
#include "core/session.hpp"
#include "core/xheal_healer.hpp"
#include "graph/algorithms.hpp"
#include "spectral/expansion.hpp"
#include "spectral/laplacian.hpp"
#include "util/table.hpp"
#include "workload/generators.hpp"

int main(int argc, char** argv) {
    using namespace xheal;

    std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 64;
    std::size_t deletions = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 20;
    std::uint64_t seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 42;

    util::Rng rng(seed);
    graph::Graph initial = workload::make_erdos_renyi(n, 4.0 / static_cast<double>(n) + 0.05, rng);
    std::cout << "initial network: " << initial.node_count() << " nodes, "
              << initial.edge_count() << " edges, h~="
              << spectral::edge_expansion_estimate(initial) << "\n";

    // The healer: Xheal with kappa = 2d = 4 expander clouds.
    core::HealingSession session(
        initial, std::make_unique<core::XhealHealer>(core::XhealConfig{2, seed}));

    util::Table table({"step", "victim", "deg(victim)", "nodes", "edges", "connected",
                       "max-deg-ratio", "h(G)~", "lambda2"});
    bool always_connected = true;
    for (std::size_t step = 0; step < deletions && session.current().node_count() > 4;
         ++step) {
        const auto& alive = session.alive_pool();
        graph::NodeId victim = alive[rng.index(alive.size())];
        std::size_t victim_degree = session.current().degree(victim);
        session.delete_node(victim);

        const auto& g = session.current();
        auto ratio = core::degree_increase(g, session.reference());
        bool connected = graph::is_connected(g);
        always_connected = always_connected && connected;
        table.row()
            .add(step)
            .add(static_cast<std::size_t>(victim))
            .add(victim_degree)
            .add(g.node_count())
            .add(g.edge_count())
            .add(connected)
            .add(ratio.max_ratio, 2)
            .add(spectral::edge_expansion_estimate(g), 3)
            .add(spectral::lambda2(g), 4);
    }
    table.print(std::cout);

    std::cout << "\nrepair totals: " << session.totals().edges_added << " edges added, "
              << session.totals().clouds_touched << " cloud operations, "
              << session.totals().combines << " combines\n";
    std::cout << "stretch vs insert-only graph: "
              << graph::stretch_vs(session.current(), session.reference())
              << " (paper bound: O(log n))\n";
    if (!always_connected) {
        std::cout << "FAIL: a deletion left the network disconnected\n";
        return 1;
    }
    return 0;
}
