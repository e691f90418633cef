#include <gtest/gtest.h>

#include "core/invariants.hpp"
#include "core/session.hpp"
#include "core/xheal_healer.hpp"
#include "graph/algorithms.hpp"
#include "support/session_check.hpp"
#include "workload/generators.hpp"

namespace {

using namespace xheal::core;
using xheal::graph::Graph;
using xheal::graph::NodeId;
namespace wl = xheal::workload;

HealingSession make_session(Graph g, std::size_t d = 2, std::uint64_t seed = 9) {
    return HealingSession(std::move(g), std::make_unique<XhealHealer>(XhealConfig{d, seed}));
}

TEST(Session, InsertMirrorsIntoReference) {
    auto s = make_session(wl::make_cycle(5));
    NodeId v = s.insert_node({0, 2});
    EXPECT_EQ(v, 5u);
    EXPECT_TRUE(s.current().has_edge(v, 0));
    EXPECT_TRUE(s.reference().has_edge(v, 0));
    EXPECT_TRUE(s.reference().has_edge(v, 2));
    EXPECT_TRUE(s.current().claims(v, 0).black);
    EXPECT_EQ(s.insertions(), 1u);
}

TEST(Session, DeleteKeepsReferenceIntact) {
    auto s = make_session(wl::make_cycle(5));
    s.delete_node(3);
    EXPECT_FALSE(s.current().has_node(3));
    EXPECT_TRUE(s.reference().has_node(3));
    EXPECT_TRUE(s.reference().has_edge(2, 3));
    EXPECT_EQ(s.deletions(), 1u);
}

TEST(Session, InsertedNodeIdsSharedAcrossGraphs) {
    auto s = make_session(wl::make_path(4));
    s.delete_node(1);
    NodeId v = s.insert_node({0});
    // Deleted ids are never reused: the new id is past every prior id.
    EXPECT_GE(v, 4u);
    EXPECT_TRUE(s.reference().has_node(1));
    EXPECT_TRUE(s.current().has_node(v));
}

TEST(Session, AverageDeletedBlackDegreeTracksReference) {
    auto s = make_session(wl::make_star(6));
    s.delete_node(0);  // center: reference degree 6
    EXPECT_DOUBLE_EQ(s.average_deleted_black_degree(), 6.0);
    s.delete_node(1);  // leaf: reference degree 1 (reference never changes)
    EXPECT_DOUBLE_EQ(s.average_deleted_black_degree(), 3.5);
}

TEST(Session, ReferenceDegreeCountsLaterInsertions) {
    auto s = make_session(wl::make_path(3));
    s.insert_node({0, 1, 2});
    s.delete_node(0);  // degree in G' is 1 (path end) + 1 (insertion) = 2
    EXPECT_DOUBLE_EQ(s.average_deleted_black_degree(), 2.0);
}

TEST(Session, TotalsAccumulate) {
    auto s = make_session(wl::make_star(8));
    auto r1 = s.delete_node(0);
    auto r2 = s.delete_node(1);
    EXPECT_EQ(s.totals().edges_added, r1.edges_added + r2.edges_added);
    EXPECT_EQ(s.totals().clouds_touched, r1.clouds_touched + r2.clouds_touched);
}

TEST(Session, ReferenceEdgesAlwaysPresentInCurrent) {
    // The multi-claim guarantee: G' restricted to alive nodes is a subgraph
    // of G, even after heavy healing.
    xheal::util::Rng rng(21);
    auto s = make_session(wl::make_erdos_renyi(30, 0.2, rng), 2, 5);
    for (int step = 0; step < 20; ++step) {
        auto alive = s.alive_pool();
        s.delete_node(alive[rng.index(alive.size())]);
        check_reference_edges_present(s.current(), s.reference());
    }
}

TEST(Session, MixedChurnMaintainsInvariants) {
    xheal::util::Rng rng(31);
    auto s = make_session(wl::make_cycle(12), 2, 17);
    auto& healer = dynamic_cast<XhealHealer&>(s.healer());
    for (int step = 0; step < 60; ++step) {
        if (step % 3 == 0 && s.current().node_count() > 4) {
            auto alive = s.alive_pool();
            s.delete_node(alive[rng.index(alive.size())]);
        } else {
            auto alive = s.alive_pool();
            auto nbrs = rng.sample(alive, std::min<std::size_t>(3, alive.size()));
            std::sort(nbrs.begin(), nbrs.end());
            s.insert_node(nbrs);
        }
        check_session(s, healer.kappa());
    }
}

TEST(Session, DeletingUnknownNodeThrows) {
    auto s = make_session(wl::make_path(3));
    EXPECT_THROW(s.delete_node(99), xheal::util::ContractViolation);
    s.delete_node(0);
    EXPECT_THROW(s.delete_node(0), xheal::util::ContractViolation);
}

TEST(Session, InsertRequiresAliveNeighbors) {
    auto s = make_session(wl::make_path(3));
    s.delete_node(2);
    EXPECT_THROW(s.insert_node({2}), xheal::util::ContractViolation);
}

}  // namespace
