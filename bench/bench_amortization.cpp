// EXPERIMENT AMO (Section 5(c)): combining primary clouds is the costly
// repair path; the paper amortizes it by showing a combine of total size S
// requires Omega(S) prior cheap deletions. We drive the free-node-starving
// adversary (the worst case for this rule) through the scenario engine with
// a per-step connectivity probe and measure:
//   * combine frequency (combines per deletion) — must stay small;
//   * amortized combine mass (combined members per deletion) — must stay
//     bounded by a constant factor of kappa * avg-degree;
//   * amortized repair edges per deletion vs the kappa*(deg+2) bound.
#include <iostream>

#include "bench_common.hpp"
#include "scenario/runner.hpp"
#include "util/table.hpp"

using namespace xheal;

int main() {
    bench::experiment_header(
        "AMO", "combine cost amortizes: O(kappa log n) amortized per deletion (Sec. 5)");

    util::Table table({"n", "d", "deletions", "combines", "combines/deletion",
                       "combine-mass/deletion", "edges-added/deletion",
                       "kappa*(A(p)+2)", "connected"});
    bool all_ok = true;
    // combine frequency per n (averaged over d), to check it does not grow
    // with scale — the amortization signature.
    std::vector<double> combine_rates;

    for (std::size_t n : {48u, 96u, 192u}) {
        double rate_sum = 0.0;
        for (std::size_t d : {1u, 2u}) {
            auto spec = bench::deletion_spec(
                "free-node-starvation", 29,
                {"erdos-renyi",
                 {{"n", std::to_string(n)},
                  {"p", util::format_shortest(5.0 / static_cast<double>(n) + 0.02)}}},
                {"xheal", {{"d", std::to_string(d)}, {"seed", "17"}}}, "bridge-hunter",
                3 * n / 4, 6);
            spec.probes = {"connected"};
            spec.sample_every = 1;  // connectivity checked after every step

            scenario::ScenarioRunner runner(spec);
            auto result = runner.run();
            const auto& session = runner.session();
            std::size_t kappa = runner.kappa();

            bool connected = true;
            for (const auto& sample : result.samples)
                connected = connected && sample.connected();

            double p = static_cast<double>(session.deletions());
            double combine_rate = static_cast<double>(session.totals().combines) / p;
            double combine_mass =
                static_cast<double>(session.totals().combine_members) / p;
            double edges_rate = static_cast<double>(session.totals().edges_added) / p;
            double budget = static_cast<double>(kappa) *
                            (session.average_deleted_black_degree() + 2.0);

            // The amortization claim: even under the starving adversary the
            // per-deletion averages stay within a small constant of the
            // kappa*(A(p)+2) budget — individual combines are expensive,
            // but their mass amortizes.
            bool ok = connected && edges_rate <= 3.0 * budget &&
                      combine_mass <= 2.0 * budget;
            all_ok = all_ok && ok;
            rate_sum += combine_rate;
            table.row()
                .add(n)
                .add(d)
                .add(session.deletions())
                .add(session.totals().combines)
                .add(combine_rate, 3)
                .add(combine_mass, 2)
                .add(edges_rate, 2)
                .add(budget, 2)
                .add(connected);
        }
        combine_rates.push_back(rate_sum / 2.0);
    }
    table.print(std::cout);

    // Amortization signature: combine frequency must not grow with n.
    bool rate_shape = combine_rates.back() <= combine_rates.front() + 0.05;
    std::cout << "\ncombine rate by n: ";
    for (double r : combine_rates) std::cout << util::format_double(r, 3) << " ";
    std::cout << (rate_shape ? "(non-increasing: amortization holds)" : "(GROWING)")
              << "\n\n";
    all_ok = all_ok && rate_shape;

    return bench::verdict(
               "AMO", all_ok,
               "per-deletion repair mass stays within a constant of the "
               "kappa*(A(p)+2) budget and combine frequency does not grow with n, "
               "even under the free-node-starving adversary")
               ? 0
               : 1;
}
