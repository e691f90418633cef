// EXPERIMENT T2.2 (Theorem 2(2), Lemma 4): network stretch
//   dist(u, v, G_t) <= O(log n) * dist(u, v, G'_t).
//
// Star hub deletions, n swept over powers of two: the leaves' distance-2
// paths through the hub must be rebuilt inside one expander cloud. The
// measured max stretch is fitted against log2(n); a logarithmic claim
// means stretch/log2(n) stays bounded and the log-log exponent of stretch
// vs n stays well below a polynomial. That fit is the verdict.
//
// Deletion sequences on grid and cycle topologies are the control. Their
// degrees stay at or below kappa+1 (kappa = 2d = 4), so every repair cloud
// is a clique over the deleted node's neighbors and each detour through it
// becomes one edge: every xheal row must read stretch exactly 1. (A log fit
// of a constant passes with slope 0 and would test nothing.)
#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "scenario/runner.hpp"
#include "support/fit.hpp"
#include "util/table.hpp"

using namespace xheal;

namespace {

/// Max stretch over 12 sampled sources after `deletions` deletions.
double measure_stretch(const scenario::ComponentSpec& topology,
                       const scenario::ComponentSpec& healer, const std::string& deleter,
                       std::size_t deletions, std::uint64_t seed) {
    auto spec =
        bench::deletion_spec("stretch", seed, topology, healer, deleter, deletions, 8);
    spec.probes = {"stretch"};
    spec.stretch_samples = 12;
    return scenario::ScenarioRunner(spec).run().final_sample.stretch;
}

/// One family of table rows, with its fit against log2(n) or the exact
/// control check.
struct Family {
    std::vector<double> ns, stretches;
    double worst_normalized = 0.0;  ///< max stretch / log2(n)

    void add(util::Table& table, const std::string& initial, std::size_t n,
             std::size_t deletions, double xheal, double line) {
        double logn = std::log2(static_cast<double>(n));
        table.row()
            .add(initial)
            .add(n)
            .add(deletions)
            .add(xheal, 2)
            .add(xheal / logn, 3)
            .add(line, 2);
        ns.push_back(static_cast<double>(n));
        stretches.push_back(xheal);
        worst_normalized = std::max(worst_normalized, xheal / logn);
    }

    /// Prints the fit; the shape is normalized stretch bounded by a small
    /// constant and sub-polynomial growth (exponent well below 0.5).
    bool holds(const std::string& label, std::string& note) const {
        auto log_fit = util::fit_vs_log2(ns, stretches);
        auto poly_fit = util::fit_loglog(ns, stretches);
        std::cout << label << " stretch vs log2(n): slope "
                  << util::format_double(log_fit.slope, 3) << " (r2 "
                  << util::format_double(log_fit.r2, 2) << "); log-log exponent "
                  << util::format_double(poly_fit.slope, 3) << "\n";
        note += label + ": max stretch / log2(n) = " +
                util::format_double(worst_normalized, 3) + ", growth exponent " +
                util::format_double(poly_fit.slope, 3) + "; ";
        return worst_normalized <= 2.0 && poly_fit.slope < 0.5;
    }

    /// The control: every row's xheal stretch is exactly 1.
    bool exact(const std::string& label, std::string& note) const {
        double worst = *std::max_element(stretches.begin(), stretches.end());
        bool ok = std::all_of(stretches.begin(), stretches.end(),
                              [](double stretch) { return stretch == 1.0; });
        std::cout << label << " control: max xheal stretch "
                  << util::format_double(worst, 3) << " over " << stretches.size()
                  << " rows (must be exactly 1)\n";
        note += label + " control: " + (ok ? "every row" : "NOT every row") +
                " at stretch 1; ";
        return ok;
    }
};

}  // namespace

int main() {
    bench::experiment_header("T2.2",
                             "dist(u,v,G_t) <= O(log n) * dist(u,v,G'_t) (Lemma 4)");

    util::Table table({"initial", "n", "deletions", "xheal stretch", "stretch/log2(n)",
                       "line-baseline stretch"});
    const scenario::ComponentSpec line{"line", {}};

    Family control;
    for (std::size_t side : {6u, 8u, 12u, 16u, 23u}) {
        std::size_t n = side * side;
        std::string s = std::to_string(side);
        scenario::ComponentSpec grid{"grid", {{"rows", s}, {"cols", s}}};
        scenario::ComponentSpec xheal{"xheal", {{"d", "2"}, {"seed", "3"}}};
        control.add(table, "grid", n, n / 4,
                  measure_stretch(grid, xheal, "random", n / 4, 17),
                  measure_stretch(grid, line, "random", n / 4, 17));
    }
    for (std::size_t n : {64u, 128u, 256u, 512u}) {
        scenario::ComponentSpec cycle{"cycle", {{"n", std::to_string(n)}}};
        scenario::ComponentSpec xheal{"xheal", {{"d", "2"}, {"seed", "5"}}};
        control.add(table, "cycle", n, n / 4,
                  measure_stretch(cycle, xheal, "random", n / 4, 23),
                  measure_stretch(cycle, line, "random", n / 4, 23));
    }

    Family hubs;
    for (std::size_t leaves : {64u, 128u, 256u, 512u, 1024u, 2048u}) {
        scenario::ComponentSpec star{"star", {{"leaves", std::to_string(leaves)}}};
        scenario::ComponentSpec xheal{"xheal", {{"d", "2"}}};
        hubs.add(table, "star", leaves + 1, 1,
                 measure_stretch(star, xheal, "max-degree", 1, 11),
                 measure_stretch(star, line, "max-degree", 1, 11));
    }
    table.print(std::cout);
    std::cout << "\n";

    std::string note;
    bool pass = control.exact("grid+cycle", note);
    pass = hubs.holds("star hub", note) && pass;
    std::cout << "\n";
    return bench::verdict("T2.2", pass, note + "logarithmic shape") ? 0 : 1;
}
