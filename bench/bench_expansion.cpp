// EXPERIMENT T2.3 (Theorem 2(3), Lemmas 1-2): after every healed deletion,
//   h(G_t) >= min(alpha, h(G'_t))   for a fixed constant alpha >= 1.
//
// We run deletion sequences on three initial topologies under two attack
// strategies, tracking h(G_t) against min(1, h(G'_t)) — exactly for small
// graphs, by Fiedler sweep for larger ones — and compare against the
// Forgiving-Tree-style baseline, which violates the rule.
#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "scenario/runner.hpp"
#include "spectral/expansion.hpp"
#include "util/table.hpp"

using namespace xheal;

namespace {

struct ExpansionRun {
    std::size_t n = 0;
    double min_h_ratio = 1e9;  ///< min over steps of h(G) / min(1, h(G'))
    double final_h = 0.0;
    bool connected = true;
};

ExpansionRun run(const scenario::ComponentSpec& topology,
                 const scenario::ComponentSpec& healer, const std::string& attack,
                 std::size_t deletions) {
    auto spec = bench::deletion_spec("expansion", 5, topology, healer, attack, deletions, 6);
    spec.probes = {"connected", "expansion"};
    spec.sample_every = 1;
    scenario::ScenarioRunner runner(spec);
    auto result = runner.run();
    // G' is insert-only and this phase only deletes, so h(G') is fixed.
    const graph::Graph& ref = runner.session().reference();
    double rule = std::min(1.0, spectral::edge_expansion_estimate(ref));
    ExpansionRun out;
    out.n = ref.node_count();
    for (const auto& sample : result.samples) {
        if (rule > 0) out.min_h_ratio = std::min(out.min_h_ratio, sample.expansion / rule);
        out.connected = out.connected && sample.connected();
    }
    out.final_h = result.final_sample.expansion;
    return out;
}

}  // namespace

int main() {
    bench::experiment_header(
        "T2.3", "h(G_t) >= min(alpha, h(G'_t)), alpha >= 1 (Theorem 2(3))");

    util::Table table({"initial", "n", "attack", "healer", "min h/min(1,h')",
                       "final h", "connected"});

    struct Workload {
        std::string name;
        scenario::ComponentSpec topology;
        std::size_t deletions;
    };
    std::vector<Workload> workloads;
    workloads.push_back({"regular6-exact", {"random-regular", {{"n", "16"}, {"d", "6"}}}, 8});
    workloads.push_back({"regular6", {"random-regular", {{"n", "96"}, {"d", "6"}}}, 48});
    workloads.push_back({"er", {"erdos-renyi", {{"n", "96"}, {"p", "0.08"}}}, 48});
    workloads.push_back({"dumbbell", {"dumbbell", {{"clique", "24"}}}, 16});
    // The paper's motivating case: the hub attack on a star is where tree
    // repair visibly violates the expansion rule (h drops to O(1/n)).
    workloads.push_back({"star", {"star", {{"leaves", "95"}}}, 24});

    const scenario::ComponentSpec xheal{"xheal", {{"d", "3"}, {"seed", "11"}}};
    const scenario::ComponentSpec tree{"forgiving-tree", {}};
    bool xheal_ok = true;
    double tree_worst = 1e9;
    for (const auto& w : workloads) {
        for (const char* attack : {"random", "max-degree"}) {
            for (const auto* healer : {&xheal, &tree}) {
                auto r = run(w.topology, *healer, attack, w.deletions);
                table.row()
                    .add(w.name)
                    .add(r.n)
                    .add(attack)
                    .add(healer->kind)
                    .add(r.min_h_ratio, 3)
                    .add(r.final_h, 3)
                    .add(r.connected);
                // Tolerance 0.5: the sweep estimator is an upper bound on h
                // for both G and G', so the ratio is noisy but its shape is
                // clear.
                if (healer == &xheal)
                    xheal_ok = xheal_ok && r.connected && r.min_h_ratio >= 0.5;
                else
                    tree_worst = std::min(tree_worst, r.min_h_ratio);
            }
        }
    }
    table.print(std::cout);
    std::cout << "\n";

    bool pass = xheal_ok && tree_worst < 0.5;
    return bench::verdict("T2.3", pass,
                          "xheal holds h(G) >= ~min(1, h(G')) on every run; the "
                          "tree baseline's worst ratio is " +
                              util::format_double(tree_worst, 3))
               ? 0
               : 1;
}
