#include <gtest/gtest.h>

#include <cmath>

#include "core/distributed_xheal.hpp"
#include "core/invariants.hpp"
#include "core/session.hpp"
#include "graph/algorithms.hpp"
#include "workload/generators.hpp"

namespace {

using namespace xheal::core;
using xheal::graph::Graph;
using xheal::graph::NodeId;
namespace wl = xheal::workload;

TEST(Distributed, RepairProducesSameGraphAsCentralized) {
    // The distributed layer adds accounting only: with identical seeds the
    // healed topology must match the centralized healer's bit for bit.
    Graph g1 = wl::make_star(20);
    Graph g2 = wl::make_star(20);
    XhealHealer central(XhealConfig{3, 77});
    DistributedXheal dist(XhealConfig{3, 77});
    for (NodeId victim : {0u, 4u, 9u}) {
        central.on_delete(g1, victim);
        dist.on_delete(g2, victim);
    }
    EXPECT_EQ(g1.edge_count(), g2.edge_count());
    g1.for_each_edge([&](NodeId u, NodeId v, const xheal::graph::EdgeClaims&) {
        EXPECT_TRUE(g2.has_edge(u, v));
    });
}

TEST(Distributed, DeletionCostsMessagesAndRounds) {
    Graph g = wl::make_star(16);
    DistributedXheal healer(XhealConfig{2, 5});
    auto report = healer.on_delete(g, 0);
    // At least one notice per neighbor plus the repair traffic.
    EXPECT_GE(report.messages, 16u);
    EXPECT_GE(report.rounds, 2u);
    EXPECT_EQ(report.messages, healer.last_messages());
    EXPECT_EQ(report.rounds, healer.last_rounds());
}

TEST(Distributed, LeafDeletionIsCheap) {
    Graph g = wl::make_star(16);
    DistributedXheal healer(XhealConfig{2, 5});
    auto report = healer.on_delete(g, 3);  // leaf: single notice, no repair
    EXPECT_EQ(report.messages, 1u);
    EXPECT_LE(report.rounds, 1u);
}

TEST(Distributed, RoundsGrowLogarithmically) {
    // Case-1 repair on a star of n leaves needs the tournament election:
    // rounds ~ ceil(log2 n) + constant.
    for (std::size_t n : {8u, 32u, 128u, 512u}) {
        Graph g = wl::make_star(n);
        DistributedXheal healer(XhealConfig{2, 5});
        auto report = healer.on_delete(g, 0);
        double expected = std::ceil(std::log2(static_cast<double>(n)));
        EXPECT_LE(report.rounds, static_cast<std::size_t>(expected) + 6)
            << "n=" << n;
        EXPECT_GE(report.rounds, 2u);
    }
}

TEST(Distributed, MessagesScaleWithDegreeTimesKappa) {
    // Case-1 repair: O(kappa * deg) messages.
    for (std::size_t n : {16u, 64u, 256u}) {
        Graph g = wl::make_star(n);
        DistributedXheal healer(XhealConfig{2, 5});
        auto report = healer.on_delete(g, 0);
        std::size_t kappa = healer.kappa();
        EXPECT_LE(report.messages, 4 * kappa * n + 64) << "n=" << n;
        EXPECT_GE(report.messages, n) << "n=" << n;
    }
}

TEST(Distributed, SessionChurnMaintainsInvariants) {
    xheal::util::Rng rng(13);
    Graph initial = wl::make_erdos_renyi(24, 0.2, rng);
    auto healer = std::make_unique<DistributedXheal>(XhealConfig{2, 21});
    std::size_t kappa = healer->kappa();
    HealingSession session(std::move(initial), std::move(healer));
    for (int step = 0; step < 25; ++step) {
        if (step % 3 != 2 && session.current().node_count() > 4) {
            auto alive = session.alive_pool();
            session.delete_node(alive[rng.index(alive.size())]);
        } else {
            auto alive = session.alive_pool();
            auto nbrs = rng.sample(alive, std::min<std::size_t>(3, alive.size()));
            std::sort(nbrs.begin(), nbrs.end());
            session.insert_node(nbrs);
        }
        check_session(session, kappa);
    }
    EXPECT_GT(session.totals().messages, 0u);
    EXPECT_GT(session.totals().rounds, 0u);
}

TEST(Distributed, NetworkStaysQuiescentBetweenRepairs) {
    Graph g = wl::make_star(12);
    DistributedXheal healer(XhealConfig{2, 5});
    healer.on_delete(g, 0);
    EXPECT_TRUE(healer.network().idle());
    healer.on_delete(g, 1);
    EXPECT_TRUE(healer.network().idle());
}

TEST(Distributed, CombineChargesFloodTraffic) {
    // Run a bridge-targeted grind until a combine fires; its repair must
    // show the BFS flood (more messages than a plain fix).
    xheal::util::Rng rng(17);
    Graph initial = wl::make_erdos_renyi(26, 0.25, rng);
    DistributedXheal healer(XhealConfig{1, 23});  // kappa=2: free nodes scarce
    Graph g = initial;
    bool combined = false;
    for (int step = 0; step < 200 && g.node_count() > 4; ++step) {
        // Prefer bridges (non-free nodes).
        NodeId victim = xheal::graph::invalid_node;
        for (NodeId v : g.nodes()) {
            if (!healer.registry().is_free(v)) {
                victim = v;
                break;
            }
        }
        if (victim == xheal::graph::invalid_node) victim = g.nodes().front();
        auto report = healer.on_delete(g, victim);
        if (report.combines > 0) {
            combined = true;
            EXPECT_GT(report.messages, 10u);
            break;
        }
    }
    EXPECT_TRUE(combined) << "no combine triggered within the grind";
}

}  // namespace
