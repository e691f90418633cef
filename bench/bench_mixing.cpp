// EXPERIMENT PRELIM (paper Preliminaries, Section 1.1): why the Cheeger
// constant — not raw edge expansion — governs mixing.
//
//   "consider a constant degree expander of n nodes and partition the
//    vertex set into two equal parts. Make each of the parts a clique.
//    This graph has expansion at least a constant, but its conductance is
//    O(1/n). Thus while the expander has logarithmic mixing time, the
//    modified graph has polynomial mixing time."
//
// We build exactly that pair of graphs across sizes and measure h, phi,
// lambda2 and the lazy-random-walk mixing time.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "spectral/expansion.hpp"
#include "spectral/laplacian.hpp"
#include "support/fit.hpp"
#include "support/random_walk.hpp"
#include "util/table.hpp"
#include "workload/generators.hpp"

using namespace xheal;

namespace {

/// The paper's modified graph: a 4-regular random expander plus a clique
/// on each half of the vertex set.
graph::Graph make_cliqued_expander(std::size_t n, util::Rng& rng) {
    graph::Graph g = workload::make_random_regular(n, 4, rng);
    std::size_t half = n / 2;
    for (std::size_t i = 0; i < half; ++i)
        for (std::size_t j = i + 1; j < half; ++j) {
            g.add_black_edge(static_cast<graph::NodeId>(i), static_cast<graph::NodeId>(j));
            g.add_black_edge(static_cast<graph::NodeId>(half + i),
                             static_cast<graph::NodeId>(half + j));
        }
    return g;
}

}  // namespace

int main() {
    bench::experiment_header(
        "PRELIM",
        "two-clique expander: h constant but phi = O(1/n) => polynomial mixing; "
        "plain expander mixes in O(log n)");

    util::Rng rng(97);
    util::Table table({"graph", "n", "h~", "phi~", "lambda2", "mixing time"});

    std::vector<double> ns, mix_expander, mix_cliqued, phi_cliqued;
    bool measurements_ok = true;
    for (std::size_t n : {16u, 24u, 32u, 48u, 64u, 96u}) {
        auto expander = workload::make_random_regular(n, 4, rng);
        auto cliqued = make_cliqued_expander(n, rng);

        auto t_exp = spectral::mixing_time(expander, 0, 0.05, 500000);
        auto t_cli = spectral::mixing_time(cliqued, 0, 0.05, 500000);
        measurements_ok = measurements_ok && t_exp.has_value() && t_cli.has_value();

        double h_exp = spectral::edge_expansion_estimate(expander);
        double h_cli = spectral::edge_expansion_estimate(cliqued);
        double phi_exp = spectral::cheeger_estimate(expander);
        double phi_cli = spectral::cheeger_estimate(cliqued);

        table.row()
            .add("expander4")
            .add(n)
            .add(h_exp, 3)
            .add(phi_exp, 4)
            .add(spectral::lambda2(expander), 4)
            .add(t_exp.has_value() ? std::to_string(*t_exp) : "-");
        table.row()
            .add("two-clique")
            .add(n)
            .add(h_cli, 3)
            .add(phi_cli, 4)
            .add(spectral::lambda2(cliqued), 4)
            .add(t_cli.has_value() ? std::to_string(*t_cli) : "-");

        ns.push_back(static_cast<double>(n));
        mix_expander.push_back(static_cast<double>(t_exp.value_or(1)));
        mix_cliqued.push_back(static_cast<double>(t_cli.value_or(1)));
        phi_cliqued.push_back(phi_cli);
    }
    table.print(std::cout);

    auto exp_fit = util::fit_loglog(ns, mix_expander);
    auto cli_fit = util::fit_loglog(ns, mix_cliqued);
    auto phi_fit = util::fit_loglog(ns, phi_cliqued);
    std::cout << "\nlog-log slopes vs n: expander mixing "
              << util::format_double(exp_fit.slope, 2) << ", two-clique mixing "
              << util::format_double(cli_fit.slope, 2) << ", two-clique phi "
              << util::format_double(phi_fit.slope, 2) << " (paper: O(1/n) ~ -1)\n\n";

    // Shape: expander mixing ~flat/logarithmic (exponent << 1); two-clique
    // mixing polynomial (exponent >= 1); conductance decays like 1/n; and
    // the two-clique/expander mixing ratio grows through the sweep (the
    // divergence the paper describes — it crosses 1 inside our range).
    double ratio_front = mix_cliqued.front() / mix_expander.front();
    double ratio_back = mix_cliqued.back() / mix_expander.back();
    bool pass = measurements_ok && exp_fit.slope < 0.75 && cli_fit.slope >= 0.9 &&
                phi_fit.slope <= -0.6 && ratio_back > 2.0 * ratio_front &&
                mix_cliqued.back() > mix_expander.back();
    return bench::verdict(
               "PRELIM", pass,
               "two-clique graph mixes polynomially (exponent " +
                   util::format_double(cli_fit.slope, 2) + ") vs expander (" +
                   util::format_double(exp_fit.slope, 2) +
                   "); conductance decays ~1/n while h stays constant")
               ? 0
               : 1;
}
