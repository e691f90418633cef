// EXPERIMENT T2.1 (Theorem 2(1), Lemma 3): for every surviving node x,
//   degree(x, G_t) <= kappa * degree(x, G'_t) + 2*kappa.
//
// Heavy insert/delete churn on three topologies with kappa swept over
// {2,4,6,8} (d in {1,2,3,4}), run through the scenario engine with the
// per-step "degree" probe; we record the worst observed ratio
// (deg_G - 2*kappa) / deg_G' and check it never exceeds kappa. The
// Star baseline shows what unbounded degree concentration looks like.
#include <algorithm>
#include <iostream>

#include "bench_common.hpp"
#include "scenario/runner.hpp"
#include "util/table.hpp"

using namespace xheal;

namespace {

/// Worst over all steps and nodes of (deg_G(v) - 2*kappa) / deg_G'(v),
/// sampled after every churn step by the runner's degree probe.
double churn_worst_ratio(const std::string& healer_kind,
                         const std::map<std::string, std::string>& healer_params,
                         const scenario::ComponentSpec& topology, std::size_t steps,
                         std::uint64_t seed, std::size_t* max_degree_seen = nullptr) {
    scenario::ScenarioSpec spec;
    spec.name = "degree-churn";
    spec.seed = seed;
    spec.topology = topology;
    spec.healer = {healer_kind, healer_params};
    spec.probes = {"degree"};
    spec.sample_every = 1;
    scenario::PhaseSpec churn;
    churn.name = "churn";
    churn.steps = steps;
    churn.delete_fraction = 0.55;
    churn.min_nodes = 8;
    churn.deleter = {"random", {}};
    churn.inserter = {"preferential-attach", {{"k", "3"}}};
    spec.phases.push_back(churn);

    scenario::ScenarioRunner runner(spec);
    auto result = runner.run();
    double worst = 0.0;
    std::size_t max_deg = 0;
    for (const auto& sample : result.samples) {
        worst = std::max(worst, sample.worst_slack_ratio);
        max_deg = std::max(max_deg, sample.max_degree);
    }
    if (max_degree_seen != nullptr) *max_degree_seen = max_deg;
    return worst;
}

}  // namespace

int main() {
    bench::experiment_header(
        "T2.1", "deg(x, G_t) <= kappa * deg(x, G'_t) + 2*kappa (Lemma 3)");

    util::Table table({"initial", "d", "kappa", "worst (deg-2k)/deg'", "bound kappa",
                       "holds"});
    bool all_hold = true;

    const scenario::ComponentSpec er{"erdos-renyi", {{"n", "48"}, {"p", "0.12"}}};
    struct Workload {
        std::string name;
        scenario::ComponentSpec topology;
    };
    std::vector<Workload> workloads;
    workloads.push_back({"er", er});
    workloads.push_back({"ba", {"barabasi-albert", {{"n", "48"}, {"m", "2"}}}});
    workloads.push_back({"regular4", {"random-regular", {{"n", "48"}, {"d", "4"}}}});

    for (const auto& w : workloads) {
        for (std::size_t d : {1u, 2u, 3u, 4u}) {
            std::size_t kappa = 2 * d;
            double worst = churn_worst_ratio(
                "xheal", {{"d", std::to_string(d)}, {"seed", std::to_string(7 + d)}},
                w.topology, 120, 13 + d);
            bool holds = worst <= static_cast<double>(kappa) + 1e-9;
            all_hold = all_hold && holds;
            table.row()
                .add(w.name)
                .add(d)
                .add(kappa)
                .add(worst, 3)
                .add(kappa)
                .add(holds);
        }
    }
    table.print(std::cout);

    // Baseline contrast: the star healer concentrates unbounded degree.
    std::size_t star_max = 0;
    churn_worst_ratio("star", {}, er, 120, 99, &star_max);
    std::size_t xheal_max = 0;
    churn_worst_ratio("xheal", {{"d", "2"}, {"seed", "7"}}, er, 120, 99, &xheal_max);
    std::cout << "\nbaseline contrast: max degree under churn — star healer "
              << star_max << " vs xheal(kappa=4) " << xheal_max << "\n\n";

    bool pass = all_hold && star_max > xheal_max;
    return bench::verdict("T2.1",
                          pass,
                          "ratio bound holds for every kappa; star baseline max degree " +
                              std::to_string(star_max) + " vs xheal " +
                              std::to_string(xheal_max))
               ? 0
               : 1;
}
