// Failure injection: adversarial kill sequences aimed at the healer's
// internal machinery — leaders, vice-leaders, whole clouds, cascades down
// to the minimum graph — asserting full invariants after every kill.
#include <gtest/gtest.h>

#include "core/invariants.hpp"
#include "core/session.hpp"
#include "core/xheal_healer.hpp"
#include "graph/algorithms.hpp"
#include "support/session_check.hpp"
#include "workload/generators.hpp"

namespace {

using namespace xheal::core;
using xheal::graph::ColorId;
using xheal::graph::Graph;
using xheal::graph::NodeId;
namespace wl = xheal::workload;

/// A leader of any live cloud, or invalid_node.
NodeId find_a_leader(const CloudRegistry& reg) {
    for (ColorId c : reg.colors()) return reg.find(c)->leader;
    return xheal::graph::invalid_node;
}

TEST(FailureInjection, RepeatedLeaderAssassination) {
    Graph g = wl::make_star(40);
    XhealHealer healer(XhealConfig{2, 3});
    healer.on_delete(g, 0);  // create the first cloud
    for (int kill = 0; kill < 30 && g.node_count() > 4; ++kill) {
        NodeId leader = find_a_leader(healer.registry());
        if (leader == xheal::graph::invalid_node) break;
        healer.on_delete(g, leader);
        ASSERT_TRUE(xheal::graph::is_connected(g)) << "kill " << kill;
        ASSERT_NO_THROW(healer.check_consistency(g)) << "kill " << kill;
    }
}

TEST(FailureInjection, ViceLeaderAssassination) {
    Graph g = wl::make_star(40);
    XhealHealer healer(XhealConfig{2, 7});
    healer.on_delete(g, 0);
    for (int kill = 0; kill < 30 && g.node_count() > 4; ++kill) {
        NodeId victim = xheal::graph::invalid_node;
        for (ColorId c : healer.registry().colors()) {
            NodeId vice = healer.registry().find(c)->vice_leader;
            if (vice != xheal::graph::invalid_node) {
                victim = vice;
                break;
            }
        }
        if (victim == xheal::graph::invalid_node) break;
        healer.on_delete(g, victim);
        ASSERT_TRUE(xheal::graph::is_connected(g));
        ASSERT_NO_THROW(healer.check_consistency(g));
    }
}

TEST(FailureInjection, WipeOutAnEntireCloud) {
    // Delete every member of the first cloud, one per step.
    Graph g = wl::make_star(20);
    XhealHealer healer(XhealConfig{2, 11});
    healer.on_delete(g, 0);
    auto colors = healer.registry().colors();
    ASSERT_FALSE(colors.empty());
    ColorId target = colors.front();
    for (int guard = 0; guard < 25 && healer.registry().exists(target); ++guard) {
        NodeId member = healer.registry().find(target)->topology.members().front();
        healer.on_delete(g, member);
        ASSERT_TRUE(xheal::graph::is_connected(g));
        ASSERT_NO_THROW(healer.check_consistency(g));
    }
    EXPECT_FALSE(healer.registry().exists(target));
}

TEST(FailureInjection, CascadeToMinimumGraph) {
    // Grind several topologies all the way down to 2 nodes with the
    // worst-victim heuristic (max colored degree).
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
        xheal::util::Rng rng(seed);
        Graph g = wl::make_erdos_renyi(20, 0.3, rng);
        XhealHealer healer(XhealConfig{2, seed});
        while (g.node_count() > 2) {
            NodeId victim = xheal::graph::invalid_node;
            std::size_t best = 0;
            for (NodeId v : g.nodes()) {
                std::size_t colored = 0;
                for (const auto& [u, claims] : g.row(v)) {
                    (void)u;
                    if (claims.colored()) ++colored;
                }
                if (victim == xheal::graph::invalid_node || colored > best) {
                    victim = v;
                    best = colored;
                }
            }
            healer.on_delete(g, victim);
            ASSERT_TRUE(xheal::graph::is_connected(g));
            ASSERT_NO_THROW(healer.check_consistency(g));
        }
    }
}

TEST(FailureInjection, InsertionsDuringCascade) {
    // Interleave insertions touching cloud members mid-cascade.
    xheal::util::Rng rng(9);
    auto healer_ptr = std::make_unique<XhealHealer>(XhealConfig{2, 13});
    std::size_t kappa = healer_ptr->kappa();
    HealingSession session(wl::make_star(16), std::move(healer_ptr));
    session.delete_node(0);
    for (int step = 0; step < 40; ++step) {
        if (step % 4 == 3) {
            auto alive = session.alive_pool();
            auto nbrs = rng.sample(alive, std::min<std::size_t>(2, alive.size()));
            std::sort(nbrs.begin(), nbrs.end());
            session.insert_node(nbrs);
        } else if (session.current().node_count() > 4) {
            auto alive = session.alive_pool();
            session.delete_node(alive[rng.index(alive.size())]);
        }
        ASSERT_NO_THROW(check_session(session, kappa)) << "step " << step;
    }
}

TEST(FailureInjection, StarOfStarsCollapse) {
    // A hub of hubs: deleting the super-hub then each sub-hub exercises
    // clouds containing other clouds' members.
    Graph g;
    NodeId super_hub = g.add_node();
    std::vector<NodeId> hubs;
    for (int i = 0; i < 5; ++i) {
        NodeId hub = g.add_node();
        hubs.push_back(hub);
        g.add_black_edge(super_hub, hub);
        for (int leaf = 0; leaf < 4; ++leaf) {
            NodeId l = g.add_node();
            g.add_black_edge(hub, l);
        }
    }
    XhealHealer healer(XhealConfig{2, 19});
    healer.on_delete(g, super_hub);
    ASSERT_TRUE(xheal::graph::is_connected(g));
    for (NodeId hub : hubs) {
        healer.on_delete(g, hub);
        ASSERT_TRUE(xheal::graph::is_connected(g));
        ASSERT_NO_THROW(healer.check_consistency(g));
    }
}

TEST(FailureInjection, PathologicalTwoNodeGraphs) {
    Graph g = wl::make_path(2);
    XhealHealer healer(XhealConfig{2, 23});
    healer.on_delete(g, 0);
    EXPECT_EQ(g.node_count(), 1u);
    healer.on_delete(g, 1);
    EXPECT_EQ(g.node_count(), 0u);
    healer.check_consistency(g);
}

}  // namespace
