// EXPERIMENT STAR (Section 1 / Related Work motivating example): a star of
// n+1 nodes loses its center.
//
//   Tree-style repairs (Forgiving Tree / Forgiving Graph) pull expansion
//   down to O(1/n); Xheal's expander cloud keeps it >= a constant.
//
// We sweep n and fit log h vs log n: the tree baselines must show exponent
// ~ -1 (the O(1/n) decay) while Xheal's exponent stays ~ 0 (constant).
#include <iostream>

#include "bench_common.hpp"
#include "scenario/runner.hpp"
#include "spectral/laplacian.hpp"
#include "support/fit.hpp"
#include "util/table.hpp"

using namespace xheal;

namespace {

/// h of a star of `leaves` leaves after `healer` repairs its hub deletion;
/// `lambda2`, when given, receives the healed graph's lambda2.
double healed_star_expansion(const scenario::ComponentSpec& healer, std::size_t leaves,
                             double* lambda2 = nullptr) {
    auto spec = bench::deletion_spec("star-hub", 7,
                                     {"star", {{"leaves", std::to_string(leaves)}}}, healer,
                                     "max-degree", 1, 1);
    spec.probes = {"expansion"};
    scenario::ScenarioRunner runner(spec);
    double h = runner.run().final_sample.expansion;
    if (lambda2 != nullptr) *lambda2 = spectral::lambda2(runner.session().current());
    return h;
}

}  // namespace

int main() {
    bench::experiment_header(
        "STAR",
        "star-center deletion: tree repair drops h to O(1/n); Xheal keeps h constant");

    std::vector<std::size_t> sizes{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096};
    util::Table table({"leaves", "xheal h~", "forgiving-tree h~", "line h~", "cycle h~",
                       "xheal lambda2", "tree lambda2"});

    std::vector<double> ns, xheal_h, tree_h;
    for (std::size_t n : sizes) {
        double lx = 0.0, lt = 0.0;
        double hx = healed_star_expansion({"xheal", {{"d", "3"}, {"seed", "7"}}}, n, &lx);
        double ht = healed_star_expansion({"forgiving-tree", {}}, n, &lt);
        double hl = healed_star_expansion({"line", {}}, n);
        double hc = healed_star_expansion({"cycle", {}}, n);

        table.row().add(n).add(hx, 4).add(ht, 4).add(hl, 4).add(hc, 4).add(lx, 4).add(lt, 4);
        ns.push_back(static_cast<double>(n));
        xheal_h.push_back(hx);
        tree_h.push_back(ht);
    }
    table.print(std::cout);

    auto xheal_fit = util::fit_loglog(ns, xheal_h);
    auto tree_fit = util::fit_loglog(ns, tree_h);
    std::cout << "\nlog-log slope of h vs n: xheal "
              << util::format_double(xheal_fit.slope, 3) << " (constant ~ 0), "
              << "forgiving-tree " << util::format_double(tree_fit.slope, 3)
              << " (O(1/n) ~ -1)\n";

    // Crossover factor at the largest size.
    double factor = xheal_h.back() / tree_h.back();
    std::cout << "at n=" << sizes.back() << ": xheal/tree expansion factor = "
              << util::format_double(factor, 1) << "x\n\n";

    bool pass = xheal_fit.slope > -0.2 && tree_fit.slope < -0.8 && factor > 50.0;
    return bench::verdict(
               "STAR", pass,
               "xheal h is flat (slope " + util::format_double(xheal_fit.slope, 2) +
                   "), tree h decays like 1/n (slope " +
                   util::format_double(tree_fit.slope, 2) + "), gap " +
                   util::format_double(factor, 0) + "x at n=4096")
               ? 0
               : 1;
}
