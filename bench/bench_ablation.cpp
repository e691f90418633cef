// EXPERIMENT ABL — design-choice ablations called out in DESIGN.md:
//
//   ABL-1 (kappa): the paper's "implementation dependent" parameter trades
//         degree increase against expansion. Sweep d (kappa = 2d) under a
//         fixed attack and report expansion, degree ratio and repair cost.
//   ABL-2 (rebuild-after-half-loss): Section 5's w.h.p. maintenance rule.
//         Theorem 3 says incremental DELETEs preserve the distribution, so
//         the *average* expansion should match with the rule off — the rule
//         buys tail probability, paid for in rebuild work. We verify the
//         averages agree and report the cost.
//   ABL-3 (cloud topology): random H-graph vs deterministic constructions
//         (de Bruijn shuffle-exchange, Margulis) vs clique at equal size —
//         the extension the paper flags as an open question.
#include <iostream>
#include <memory>

#include "bench_common.hpp"
#include "adversary/adversary.hpp"
#include "core/metrics.hpp"
#include "core/session.hpp"
#include "core/xheal_healer.hpp"
#include "spectral/expansion.hpp"
#include "spectral/laplacian.hpp"
#include "support/deterministic.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/generators.hpp"

using namespace xheal;

namespace {

struct AttackOutcome {
    double final_h = 0.0;
    double max_degree_ratio = 0.0;
    double edges_per_deletion = 0.0;
    std::size_t rebuilds = 0;
};

AttackOutcome attack_with(core::XhealConfig config, std::uint64_t seed) {
    util::Rng rng(seed);
    graph::Graph initial = workload::make_random_regular(64, 6, rng);
    core::HealingSession session(initial,
                                 std::make_unique<core::XhealHealer>(config));
    adversary::ColoredDegreeDeletion attacker;
    std::size_t deletions = 28;
    for (std::size_t i = 0; i < deletions; ++i) {
        session.delete_node(attacker.pick(session, rng));
    }
    AttackOutcome out;
    out.final_h = spectral::edge_expansion_estimate(session.current());
    out.max_degree_ratio =
        core::degree_increase(session.current(), session.reference()).max_ratio;
    out.edges_per_deletion = static_cast<double>(session.totals().edges_added) /
                             static_cast<double>(deletions);
    out.rebuilds = session.totals().rebuilds;
    return out;
}

}  // namespace

int main() {
    bool all_pass = true;

    // ---- ABL-1: kappa sweep -------------------------------------------
    bench::experiment_header("ABL-1",
                             "kappa trades degree increase against expansion");
    util::Table t1({"d", "kappa", "final h~", "max deg ratio", "edges/deletion"});
    std::vector<double> hs, ratios;
    for (std::size_t d : {1u, 2u, 3u, 4u, 5u}) {
        auto out = attack_with(core::XhealConfig{d, 19, true}, 3);
        t1.row()
            .add(d)
            .add(2 * d)
            .add(out.final_h, 3)
            .add(out.max_degree_ratio, 2)
            .add(out.edges_per_deletion, 2);
        hs.push_back(out.final_h);
        ratios.push_back(out.max_degree_ratio);
    }
    t1.print(std::cout);
    std::cout << "\n";
    // Shape: expansion does not degrade as kappa grows, and the degree
    // ratio stays within the kappa-proportional bound (monotone-ish cost).
    bool abl1 = hs.back() >= hs.front() * 0.8 && ratios.front() <= ratios.back() + 2.0;
    all_pass &= bench::verdict("ABL-1", abl1,
                               "larger kappa buys equal-or-better expansion at "
                               "proportionally higher degree/repair cost");

    // ---- ABL-2: rebuild-after-half-loss --------------------------------
    bench::experiment_header(
        "ABL-2", "half-loss rebuild: same average expansion (Theorem 3), extra work "
                 "buys the w.h.p. tail");
    util::Table t2({"rebuild rule", "runs", "mean final h~", "min final h~",
                    "mean edges/deletion", "total rebuilds"});
    util::RunningStats h_on, h_off, cost_on, cost_off;
    std::size_t rebuilds_on = 0, rebuilds_off = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        auto on = attack_with(core::XhealConfig{2, 100 + seed, true}, seed);
        auto off = attack_with(core::XhealConfig{2, 100 + seed, false}, seed);
        h_on.add(on.final_h);
        h_off.add(off.final_h);
        cost_on.add(on.edges_per_deletion);
        cost_off.add(off.edges_per_deletion);
        rebuilds_on += on.rebuilds;
        rebuilds_off += off.rebuilds;
    }
    t2.row().add("on").add(h_on.count()).add(h_on.mean(), 3).add(h_on.min(), 3)
        .add(cost_on.mean(), 2).add(rebuilds_on);
    t2.row().add("off").add(h_off.count()).add(h_off.mean(), 3).add(h_off.min(), 3)
        .add(cost_off.mean(), 2).add(rebuilds_off);
    t2.print(std::cout);
    std::cout << "\n";
    bool abl2 = rebuilds_off == 0 &&
                h_off.mean() >= h_on.mean() * 0.75 && h_on.mean() >= h_off.mean() * 0.75;
    all_pass &= bench::verdict(
        "ABL-2", abl2,
        "average expansion matches with the rule off (Theorem 3's distribution "
        "preservation); the rule's rebuilds are pure tail insurance");

    // ---- ABL-3: cloud topology choice ----------------------------------
    bench::experiment_header(
        "ABL-3", "random H-graph vs deterministic constructions at equal size");
    util::Table t3({"topology", "n", "edges", "max deg", "h~", "lambda2",
                    "dynamic O(1) ops"});
    util::Rng rng(77);
    bool abl3 = true;
    for (std::size_t n : {25u, 64u, 121u}) {
        auto h_graph = workload::make_hgraph_graph(n, 3, rng);  // kappa = 6
        auto debruijn = expander::make_debruijn_graph(n);
        std::size_t m = n == 25 ? 5 : n == 64 ? 8 : 11;
        auto margulis = expander::make_margulis_expander(m);

        struct Row {
            const char* name;
            const graph::Graph* g;
            const char* dynamic;
        } rows[] = {{"hgraph(d=3)", &h_graph, "yes (Law-Siu)"},
                    {"debruijn", &debruijn, "no"},
                    {"margulis", &margulis, "no (square sizes only)"}};
        for (const auto& row : rows) {
            double h = spectral::edge_expansion_estimate(*row.g);
            double l2 = spectral::lambda2(*row.g);
            t3.row()
                .add(row.name)
                .add(row.g->node_count())
                .add(row.g->edge_count())
                .add(row.g->max_degree())
                .add(h, 3)
                .add(l2, 4)
                .add(row.dynamic);
            abl3 = abl3 && h > 0.3 && l2 > 0.03;
        }
    }
    t3.print(std::cout);
    std::cout << "\n";
    all_pass &= bench::verdict(
        "ABL-3", abl3,
        "all three constructions are usable expanders; only the H-graph "
        "supports the O(1) INSERT/DELETE Xheal needs — the deterministic "
        "alternative remains an open question, as the paper notes");

    return all_pass ? 0 : 1;
}
