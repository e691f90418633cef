// EXPERIMENT T2.2 (Theorem 2(2), Lemma 4): network stretch
//   dist(u, v, G_t) <= O(log n) * dist(u, v, G'_t).
//
// Deletion sequences on grid and path topologies (where detours are
// forced), n swept over powers of two; the measured max stretch is fitted
// against log2(n). A logarithmic claim means stretch/log2(n) stays bounded
// and the log-log exponent of stretch vs n stays well below a polynomial.
#include <cmath>
#include <iostream>
#include <memory>

#include "adversary/adversary.hpp"
#include "baseline/baselines.hpp"
#include "bench_common.hpp"
#include "core/session.hpp"
#include "core/xheal_healer.hpp"
#include "spectral/probes.hpp"
#include "util/fit.hpp"
#include "util/table.hpp"
#include "workload/generators.hpp"

using namespace xheal;

namespace {

double measure_stretch(std::unique_ptr<core::Healer> healer, graph::Graph initial,
                       std::size_t deletions, std::uint64_t seed) {
    util::Rng rng(seed);
    core::HealingSession session(std::move(initial), std::move(healer));
    adversary::RandomDeletion attacker;
    for (std::size_t i = 0; i < deletions && session.current().node_count() > 8; ++i) {
        session.delete_node(attacker.pick(session, rng));
    }
    return spectral::ProbeEngine().sampled_stretch(session.current(), session.reference(),
                                                   12, rng);
}

}  // namespace

int main() {
    bench::experiment_header("T2.2",
                             "dist(u,v,G_t) <= O(log n) * dist(u,v,G'_t) (Lemma 4)");

    util::Table table({"initial", "n", "deletions", "xheal stretch", "stretch/log2(n)",
                       "line-baseline stretch"});

    std::vector<double> ns, stretches;
    double worst_normalized = 0.0;
    double line_worst = 0.0;

    for (std::size_t side : {6u, 8u, 12u, 16u, 23u}) {
        std::size_t n = side * side;
        std::size_t deletions = n / 4;
        double s = measure_stretch(
            std::make_unique<core::XhealHealer>(core::XhealConfig{2, 3}),
            workload::make_grid(side, side), deletions, 17);
        double line = measure_stretch(std::make_unique<baseline::LineHealer>(),
                                      workload::make_grid(side, side), deletions, 17);
        double logn = std::log2(static_cast<double>(n));
        table.row()
            .add("grid")
            .add(n)
            .add(deletions)
            .add(s, 2)
            .add(s / logn, 3)
            .add(line, 2);
        ns.push_back(static_cast<double>(n));
        stretches.push_back(s);
        worst_normalized = std::max(worst_normalized, s / logn);
        line_worst = std::max(line_worst, line);
    }

    for (std::size_t n : {64u, 128u, 256u, 512u}) {
        std::size_t deletions = n / 4;
        double s = measure_stretch(
            std::make_unique<core::XhealHealer>(core::XhealConfig{2, 5}),
            workload::make_cycle(n), deletions, 23);
        double line = measure_stretch(std::make_unique<baseline::LineHealer>(),
                                      workload::make_cycle(n), deletions, 23);
        double logn = std::log2(static_cast<double>(n));
        table.row().add("cycle").add(n).add(deletions).add(s, 2).add(s / logn, 3).add(line, 2);
        ns.push_back(static_cast<double>(n));
        stretches.push_back(s);
        worst_normalized = std::max(worst_normalized, s / logn);
        line_worst = std::max(line_worst, line);
    }
    table.print(std::cout);

    auto log_fit = util::fit_vs_log2(ns, stretches);
    auto poly_fit = util::fit_loglog(ns, stretches);
    std::cout << "\nstretch vs log2(n): slope " << util::format_double(log_fit.slope, 3)
              << " (r2 " << util::format_double(log_fit.r2, 2) << ")"
              << "; log-log exponent " << util::format_double(poly_fit.slope, 3) << "\n\n";

    // Shape: normalized stretch bounded by a small constant, sub-polynomial
    // growth (exponent well below 0.5).
    bool pass = worst_normalized <= 2.0 && poly_fit.slope < 0.5;
    return bench::verdict(
               "T2.2", pass,
               "max stretch / log2(n) = " + util::format_double(worst_normalized, 3) +
                   ", growth exponent " + util::format_double(poly_fit.slope, 3) +
                   " (logarithmic shape)")
               ? 0
               : 1;
}
