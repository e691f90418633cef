// EXPERIMENT T5a (Theorem 5): a repair completes in O(log n) rounds.
//
// Two regimes on the distributed implementation, both expressed as
// scenario-engine schedules (scenario/runner.hpp):
//   * hub repair — delete the center of a star of n leaves, the worst case
//     (the tournament election over n candidates): rounds ~ log2(n);
//   * steady churn — random deletions on a bounded-degree expander: rounds
//     stay far below the log n envelope (constant-degree repairs).
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "scenario/runner.hpp"
#include "support/fit.hpp"
#include "util/table.hpp"

using namespace xheal;

namespace {

/// Star of n leaves, one max-degree (= hub) deletion on distributed Xheal.
scenario::ScenarioSpec hub_spec(std::size_t n) {
    return bench::deletion_spec("hub-repair", 5, {"star", {{"leaves", std::to_string(n)}}},
                                {"xheal-dist", {{"d", "2"}}}, "max-degree", 1, 1);
}

/// n/4 random deletions on a random 4-regular expander of n nodes.
scenario::ScenarioSpec churn_spec(std::size_t n) {
    return bench::deletion_spec("steady-churn", 11,
                                {"random-regular", {{"n", std::to_string(n)}, {"d", "4"}}},
                                {"xheal-dist", {{"d", "2"}, {"seed", "7"}}}, "random", n / 4,
                                8);
}

}  // namespace

int main() {
    bench::experiment_header("T5a", "repair completes in O(log n) rounds (Theorem 5)");

    // ---- hub repairs: rounds vs n ------------------------------------
    util::Table hub_table({"n (star leaves)", "rounds", "log2(n)", "rounds/log2(n)"});
    std::vector<double> ns, rounds_series;
    bool hub_ok = true;
    for (std::size_t n : {16u, 32u, 64u, 128u, 256u, 512u, 1024u, 2048u}) {
        scenario::ScenarioRunner runner(hub_spec(n));
        auto result = runner.run();
        double rounds = result.phases[0].rounds.max();
        double logn = std::log2(static_cast<double>(n));
        hub_table.row()
            .add(n)
            .add(static_cast<std::size_t>(rounds))
            .add(logn, 2)
            .add(rounds / logn, 3);
        ns.push_back(static_cast<double>(n));
        rounds_series.push_back(rounds);
        hub_ok = hub_ok && rounds <= 3.0 * logn + 8.0;
    }
    hub_table.print(std::cout);
    auto fit = util::fit_vs_log2(ns, rounds_series);
    auto poly = util::fit_loglog(ns, rounds_series);
    std::cout << "\nhub repair rounds vs log2(n): slope "
              << util::format_double(fit.slope, 3) << " (r2 "
              << util::format_double(fit.r2, 3) << "), log-log exponent "
              << util::format_double(poly.slope, 3) << "\n\n";

    // ---- steady churn: rounds stay under the envelope ------------------
    util::Table churn_table({"n (4-regular)", "deletions", "mean rounds", "max rounds",
                             "3*log2(n)+8"});
    bool churn_ok = true;
    for (std::size_t n : {32u, 128u, 512u}) {
        std::size_t deletions = n / 4;
        scenario::ScenarioRunner runner(churn_spec(n));
        auto result = runner.run();
        const auto& rounds = result.phases[0].rounds;
        double envelope = 3.0 * std::log2(static_cast<double>(n)) + 8.0;
        churn_ok = churn_ok && rounds.max() <= envelope;
        churn_table.row()
            .add(n)
            .add(deletions)
            .add(rounds.mean(), 2)
            .add(rounds.max(), 0)
            .add(envelope, 1);
    }
    churn_table.print(std::cout);
    std::cout << "\n";

    // Shape: hub repairs grow ~1x log2(n) (fit slope ~1, strongly sub-
    // polynomial); churn repairs stay below the O(log n) envelope.
    bool pass = hub_ok && churn_ok && fit.slope >= 0.5 && fit.slope <= 2.5 &&
                poly.slope < 0.5;
    return bench::verdict("T5a", pass,
                          "rounds/deletion grow like log2(n): fit slope " +
                              util::format_double(fit.slope, 2) + ", exponent " +
                              util::format_double(poly.slope, 2) +
                              "; churn stays under the 3*log2(n)+8 envelope")
               ? 0
               : 1;
}
