#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "expander/cloud_topology.hpp"
#include "util/expects.hpp"

namespace {

using namespace xheal::expander;
using xheal::graph::NodeId;
using xheal::util::ContractViolation;
using xheal::util::Rng;

std::vector<NodeId> ids(std::size_t n) {
    std::vector<NodeId> out;
    for (std::size_t i = 0; i < n; ++i) out.push_back(static_cast<NodeId>(i));
    return out;
}

std::vector<std::pair<NodeId, NodeId>> edges(const CloudTopology& t) {
    std::vector<std::pair<NodeId, NodeId>> out;
    t.collect_edges(out);
    return out;
}

TEST(CloudTopology, SmallCloudIsClique) {
    Rng rng(1);
    CloudTopology t(ids(5), 2, rng);  // kappa = 4; 5 <= kappa+1 -> clique
    EXPECT_EQ(t.mode(), CloudTopology::Mode::clique);
    EXPECT_EQ(edges(t).size(), 10u);  // C(5,2)
}

TEST(CloudTopology, LargeCloudIsHGraph) {
    Rng rng(2);
    CloudTopology t(ids(12), 2, rng);  // 12 > kappa+1 = 5
    EXPECT_EQ(t.mode(), CloudTopology::Mode::hgraph);
    // Projected simple edges at most d * n (union of 2 Hamilton cycles).
    EXPECT_LE(edges(t).size(), 24u);
    EXPECT_GE(edges(t).size(), 12u);
}

TEST(CloudTopology, GrowthCrossesIntoHGraph) {
    Rng rng(3);
    CloudTopology t(ids(5), 2, rng);
    EXPECT_EQ(t.mode(), CloudTopology::Mode::clique);
    t.insert(100, rng);  // size 6 > kappa+1 = 5
    EXPECT_EQ(t.mode(), CloudTopology::Mode::hgraph);
    EXPECT_TRUE(t.contains(100));
    EXPECT_EQ(t.size(), 6u);
}

TEST(CloudTopology, ShrinkDropsBackToClique) {
    Rng rng(4);
    CloudTopology t(ids(7), 2, rng);
    EXPECT_EQ(t.mode(), CloudTopology::Mode::hgraph);
    t.remove(0, rng);
    t.remove(1, rng);  // size 5 <= kappa+1
    EXPECT_EQ(t.mode(), CloudTopology::Mode::clique);
    EXPECT_EQ(edges(t).size(), 10u);
}

TEST(CloudTopology, MinimumHGraphSizeIsThree) {
    Rng rng(5);
    CloudTopology t(ids(4), 1, rng);  // kappa = 2; 4 > 3 -> hgraph
    EXPECT_EQ(t.mode(), CloudTopology::Mode::hgraph);
    t.remove(0, rng);
    // Size 3 = kappa+1: clique of 3 (same as one cycle).
    EXPECT_EQ(t.mode(), CloudTopology::Mode::clique);
    EXPECT_EQ(edges(t).size(), 3u);
}

TEST(CloudTopology, HalfLossTriggersRebuildFlag) {
    Rng rng(6);
    CloudTopology t(ids(20), 2, rng);
    EXPECT_FALSE(t.needs_rebuild());
    for (NodeId v = 0; v < 10; ++v) t.remove(v, rng);
    EXPECT_FALSE(t.needs_rebuild());  // exactly half is not yet below half
    t.remove(10, rng);
    EXPECT_TRUE(t.needs_rebuild());
    t.rebuild(rng);
    EXPECT_FALSE(t.needs_rebuild());
}

TEST(CloudTopology, InsertionDoesNotResetRebuildBaseline) {
    Rng rng(7);
    CloudTopology t(ids(20), 2, rng);
    for (NodeId v = 0; v < 9; ++v) t.remove(v, rng);
    t.insert(50, rng);  // size 12, baseline still 20
    t.remove(9, rng);
    t.remove(10, rng);  // size 10
    t.remove(11, rng);  // size 9 < 10
    EXPECT_TRUE(t.needs_rebuild());
}

TEST(CloudTopology, EdgesAreSortedSimplePairs) {
    Rng rng(8);
    CloudTopology t(ids(15), 3, rng);
    auto pairs = edges(t);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        EXPECT_LT(pairs[i].first, pairs[i].second);
        if (i > 0) {
            EXPECT_LT(pairs[i - 1], pairs[i]);
        }
    }
}

TEST(CloudTopology, ForEachPairVisitsExactlyTheCollectedEdges) {
    Rng rng(11);
    for (std::size_t n : {4u, 15u}) {  // clique mode, then H-graph mode
        CloudTopology t(ids(n), 2, rng);
        EXPECT_EQ(t.mode(), n == 4 ? CloudTopology::Mode::clique : CloudTopology::Mode::hgraph);
        // Reference projection: every member pair the topology joins.
        std::vector<std::pair<NodeId, NodeId>> want;
        for (NodeId a : t.members())
            for (NodeId b : t.members())
                if (a < b && t.has_edge(a, b)) want.push_back({a, b});

        std::vector<std::pair<NodeId, NodeId>> seen;
        t.for_each_pair([&](NodeId u, NodeId v) {
            EXPECT_LT(u, v) << n;
            EXPECT_TRUE(seen.empty() || seen.back() < std::pair(u, v)) << n;  // once each
            seen.push_back({u, v});
        });
        EXPECT_EQ(seen, want) << n;
        EXPECT_EQ(edges(t), want) << n;
    }
}

TEST(CloudTopology, RemoveRequiresMembershipAndSize) {
    Rng rng(9);
    CloudTopology t(ids(2), 2, rng);
    EXPECT_THROW(t.remove(5, rng), ContractViolation);
    t.remove(0, rng);
    EXPECT_THROW(t.remove(1, rng), ContractViolation);  // size >= 2 required
}

TEST(CloudTopology, TwoNodeCloudHasOneEdge) {
    Rng rng(10);
    CloudTopology t({3, 7}, 4, rng);
    EXPECT_EQ(t.mode(), CloudTopology::Mode::clique);
    ASSERT_EQ(edges(t).size(), 1u);
    EXPECT_EQ(edges(t)[0], (std::pair<NodeId, NodeId>{3, 7}));
}

}  // namespace
