// End-to-end integration: run full attack scenarios and verify the paper's
// Theorem 2 guarantees hold as measured properties of the healed graph.
#include <gtest/gtest.h>

#include <cmath>

#include "adversary/adversary.hpp"
#include "core/distributed_xheal.hpp"
#include "core/invariants.hpp"
#include "core/metrics.hpp"
#include "core/session.hpp"
#include "core/xheal_healer.hpp"
#include "graph/algorithms.hpp"
#include "scenario/runner.hpp"
#include "spectral/expansion.hpp"
#include "spectral/laplacian.hpp"
#include "support/session_check.hpp"
#include "workload/generators.hpp"

namespace {

using namespace xheal;
using namespace xheal::core;
using graph::Graph;
using graph::NodeId;
namespace wl = workload;
namespace adv = adversary;

TEST(Integration, ExpanderStaysExpanderUnderAttack) {
    // Corollary 1: bounded-degree expander in, expander out.
    util::Rng rng(3);
    Graph initial = wl::make_random_regular(64, 6, rng);
    double h0 = spectral::edge_expansion_estimate(initial);
    ASSERT_GT(h0, 1.0);

    HealingSession session(initial, std::make_unique<XhealHealer>(XhealConfig{3, 7}));
    adv::MaxDegreeDeletion attacker;
    for (int step = 0; step < 24; ++step) {
        session.delete_node(attacker.pick(session, rng));
    }
    EXPECT_TRUE(graph::is_connected(session.current()));
    double h_after = spectral::edge_expansion_estimate(session.current());
    // Shape check: expansion stays bounded away from the tree-like 2/n.
    EXPECT_GT(h_after, 0.5);
    double l2 = spectral::lambda2(session.current());
    EXPECT_GT(l2, 0.01);
}

TEST(Integration, StretchStaysLogarithmic) {
    // Theorem 2(2): stretch <= O(log n).
    util::Rng rng(11);
    Graph initial = wl::make_grid(8, 8);
    HealingSession session(initial, std::make_unique<XhealHealer>(XhealConfig{2, 5}));
    adv::RandomDeletion attacker;
    for (int step = 0; step < 20; ++step) {
        session.delete_node(attacker.pick(session, rng));
    }
    double stretch = graph::stretch_vs(session.current(), session.reference());
    double n = static_cast<double>(session.current().node_count());
    EXPECT_TRUE(std::isfinite(stretch));
    EXPECT_LE(stretch, 3.0 * std::log2(n) + 1.0);
}

TEST(Integration, DegreeBoundHoldsOnEveryWorkload) {
    util::Rng rng(17);
    std::vector<Graph> initials;
    initials.push_back(wl::make_cycle(32));
    initials.push_back(wl::make_barabasi_albert(40, 2, rng));
    initials.push_back(wl::make_hypercube(5));
    for (auto& initial : initials) {
        auto healer = std::make_unique<XhealHealer>(XhealConfig{2, 23});
        std::size_t kappa = healer->kappa();
        HealingSession session(std::move(initial), std::move(healer));
        adv::ColoredDegreeDeletion attacker;
        for (int step = 0; step < 20 && session.current().node_count() > 4; ++step) {
            session.delete_node(attacker.pick(session, rng));
            check_degree_bound(session.current(), session.reference(), kappa);
        }
    }
}

TEST(Integration, ExpansionNeverBelowMinRuleOnSmallGraphs) {
    // Lemma 2 shape on exactly-measurable sizes: h(G_t) >= min(c, h(G'_t))
    // with a constant c >= ~1 (clique case) — tested via exact enumeration.
    util::Rng rng(29);
    Graph initial = wl::make_complete(10);
    HealingSession session(initial, std::make_unique<XhealHealer>(XhealConfig{4, 31}));
    for (int step = 0; step < 6; ++step) {
        auto alive = session.alive_pool();
        session.delete_node(alive[rng.index(alive.size())]);
        double h_now = spectral::edge_expansion_exact(session.current());
        // Reference graph K10 has h = 5; the rule bottoms out at c >= 1.
        EXPECT_GE(h_now, 1.0) << "step " << step;
    }
}

TEST(Integration, HeavyChurnEndsHealthy) {
    scenario::ScenarioSpec spec = scenario::ScenarioSpec::parse(
        "seed 37\n"
        "topology erdos-renyi n=40 p=0.12\n"
        "healer xheal d=2 seed=41\n"
        "phase churn steps=150 delete_fraction=0.5 deleter=random "
        "inserter=preferential-attach k=3 min_nodes=8\n");
    scenario::ScenarioRunner runner(spec);
    runner.run();
    const HealingSession& session = runner.session();
    std::size_t kappa = runner.kappa();
    EXPECT_GT(session.deletions(), 30u);
    check_session(session, kappa);
    EXPECT_TRUE(graph::is_connected(session.current()));
    auto ratio = degree_increase(session.current(), session.reference());
    EXPECT_LE(ratio.max_ratio, static_cast<double>(kappa) * 3.0 + 2.0 * kappa);
}

TEST(Integration, DistributedMatchesTheoremFiveShape) {
    // Rounds per deletion ~ O(log n); amortized messages within
    // O(kappa log n) of the A(p) lower bound.
    util::Rng rng(43);
    Graph initial = wl::make_random_regular(128, 4, rng);
    auto healer = std::make_unique<DistributedXheal>(XhealConfig{2, 47});
    std::size_t kappa = healer->kappa();
    HealingSession session(std::move(initial), std::move(healer));
    adv::RandomDeletion attacker;
    std::size_t deletions = 40;
    std::size_t max_rounds = 0;
    for (std::size_t i = 0; i < deletions; ++i) {
        auto report = session.delete_node(attacker.pick(session, rng));
        max_rounds = std::max(max_rounds, report.rounds);
    }
    double n = static_cast<double>(session.current().node_count());
    EXPECT_LE(max_rounds, 6.0 * std::log2(n) + 10.0);

    double ap = session.average_deleted_black_degree();
    double amortized = static_cast<double>(session.totals().messages) /
                       static_cast<double>(session.deletions());
    double bound = static_cast<double>(kappa) * std::log2(n) * ap * 8.0 + 64.0;
    EXPECT_LE(amortized, bound);
    EXPECT_GE(amortized, ap * 0.5);  // Lemma 5: Theta(deg) is necessary
}

TEST(Integration, MultiSeedStability) {
    // The guarantees are not seed luck: repeat a scenario across seeds.
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        util::Rng rng(seed);
        Graph initial = wl::make_erdos_renyi(30, 0.2, rng);
        auto healer = std::make_unique<XhealHealer>(XhealConfig{2, seed * 100});
        std::size_t kappa = healer->kappa();
        HealingSession session(std::move(initial), std::move(healer));
        for (int step = 0; step < 15; ++step) {
            auto alive = session.alive_pool();
            session.delete_node(alive[rng.index(alive.size())]);
        }
        EXPECT_NO_THROW(check_session(session, kappa)) << "seed " << seed;
    }
}

}  // namespace
