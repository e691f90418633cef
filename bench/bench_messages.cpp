// EXPERIMENT T5b (Theorem 5, Lemma 5): amortized message complexity.
//
//   Lemma 5:   any healer needs Theta(deg(v)) messages per deletion, so
//              A(p) = avg black-degree of the deleted nodes is the best
//              possible amortized cost;
//   Theorem 5: Xheal's amortized cost is O(kappa * log n * A(p)).
//
// We run p deletions on several topologies through the scenario engine,
// report measured amortized messages, the A(p) floor and the
// kappa*log2(n)*A(p) ceiling, and check the measurement sits between them.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "scenario/runner.hpp"
#include "util/table.hpp"

using namespace xheal;

namespace {

struct MessageRun {
    double amortized = 0.0;
    double ap = 0.0;
    double ceiling = 0.0;
    std::size_t combines = 0;
};

MessageRun run(const scenario::ComponentSpec& topology, const std::string& attack,
               std::size_t deletions, std::size_t d, std::uint64_t seed) {
    scenario::ScenarioRunner runner(
        bench::deletion_spec("messages-" + attack, seed, topology,
                             {"xheal-dist", {{"d", std::to_string(d)}}}, attack, deletions, 8));
    runner.run();
    const auto& session = runner.session();
    MessageRun out;
    out.amortized = static_cast<double>(session.totals().messages) /
                    static_cast<double>(session.deletions());
    out.ap = session.average_deleted_black_degree();
    double n = static_cast<double>(session.current().node_count());
    out.ceiling = static_cast<double>(runner.kappa()) * std::log2(std::max(4.0, n)) * out.ap;
    out.combines = session.totals().combines;
    return out;
}

}  // namespace

int main() {
    bench::experiment_header(
        "T5b",
        "A(p) <= amortized messages <= O(kappa log n * A(p)) (Theorem 5 + Lemma 5)");

    util::Table table({"initial", "n", "attack", "p", "A(p) floor", "amortized msgs",
                       "kappa*log2(n)*A(p)", "floor<=m<=ceiling", "combines"});
    bool all_ok = true;

    struct Workload {
        std::string name;
        scenario::ComponentSpec topology;
    };
    for (std::size_t n : {64u, 256u, 1024u}) {
        std::string nodes = std::to_string(n);
        std::vector<Workload> workloads;
        workloads.push_back({"regular4", {"random-regular", {{"n", nodes}, {"d", "4"}}}});
        workloads.push_back(
            {"er",
             {"erdos-renyi",
              {{"n", nodes},
               {"p", util::format_shortest(std::min(0.9, 6.0 / static_cast<double>(n)))}}}});
        for (auto& w : workloads) {
            for (const char* attack : {"random", "max-degree"}) {
                std::size_t p = n / 4;
                auto r = run(w.topology, attack, p, 2, 13);
                // The floor is asymptotic (Theta): allow a 0.5 constant.
                // Oblivious (random) deletions must sit under the ceiling
                // with constant 1; the degree-adaptive hub attack chases
                // bridge nodes and drives combine cascades — measured
                // constant ~1.75 at n=1024 — so it gets a 2.5x allowance.
                // (A reproduction finding, recorded in DESIGN.md section 3:
                // the paper's amortization argument is average-case.)
                double allowance = std::string(attack) == "max-degree" ? 2.5 : 1.0;
                bool ok = r.amortized >= 0.5 * r.ap &&
                          r.amortized <= allowance * r.ceiling;
                all_ok = all_ok && ok;
                table.row()
                    .add(w.name)
                    .add(n)
                    .add(attack)
                    .add(p)
                    .add(r.ap, 2)
                    .add(r.amortized, 2)
                    .add(r.ceiling, 1)
                    .add(ok)
                    .add(r.combines);
            }
        }
    }
    table.print(std::cout);
    std::cout << "\n";

    return bench::verdict(
               "T5b", all_ok,
               "amortized messages sit between the Lemma-5 floor and the "
               "kappa*log2(n)*A(p) ceiling (constant 1 for oblivious deletions, "
               "<=2.5 under the degree-adaptive hub attack)")
               ? 0
               : 1;
}
