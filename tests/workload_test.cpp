#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "expander/hgraph.hpp"
#include "graph/algorithms.hpp"
#include "scenario/trace.hpp"
#include "support/graph_reference.hpp"
#include "workload/generators.hpp"

namespace {

using namespace xheal::graph;
namespace wl = xheal::workload;
using xheal::util::Rng;

TEST(Workload, PathShape) {
    auto g = wl::make_path(10);
    EXPECT_EQ(g.node_count(), 10u);
    EXPECT_EQ(g.edge_count(), 9u);
    EXPECT_EQ(g.degree(0), 1u);
    EXPECT_EQ(g.degree(5), 2u);
    EXPECT_TRUE(is_connected(g));
}

TEST(Workload, CycleShape) {
    auto g = wl::make_cycle(10);
    EXPECT_EQ(g.edge_count(), 10u);
    for (NodeId v : g.nodes()) EXPECT_EQ(g.degree(v), 2u);
}

TEST(Workload, StarShape) {
    auto g = wl::make_star(9);
    EXPECT_EQ(g.node_count(), 10u);
    EXPECT_EQ(g.degree(0), 9u);
    EXPECT_EQ(g.degree(3), 1u);
}

TEST(Workload, CompleteShape) {
    auto g = wl::make_complete(7);
    EXPECT_EQ(g.edge_count(), 21u);
    for (NodeId v : g.nodes()) EXPECT_EQ(g.degree(v), 6u);
}

TEST(Workload, GridShape) {
    auto g = wl::make_grid(3, 4);
    EXPECT_EQ(g.node_count(), 12u);
    EXPECT_EQ(g.edge_count(), 3u * 3 + 4u * 2);  // rows*(cols-1) + cols*(rows-1)
    EXPECT_TRUE(is_connected(g));
}

TEST(Workload, TorusIsFourRegular) {
    auto g = wl::make_torus(4, 5);
    for (NodeId v : g.nodes()) EXPECT_EQ(g.degree(v), 4u);
    EXPECT_TRUE(is_connected(g));
}

TEST(Workload, HypercubeShape) {
    auto g = wl::make_hypercube(4);
    EXPECT_EQ(g.node_count(), 16u);
    for (NodeId v : g.nodes()) EXPECT_EQ(g.degree(v), 4u);
    EXPECT_EQ(diameter_exact(g), std::optional<std::size_t>{4});
}

TEST(Workload, BinaryTreeShape) {
    auto g = wl::make_binary_tree(15);
    EXPECT_EQ(g.edge_count(), 14u);
    EXPECT_TRUE(is_connected(g));
    EXPECT_EQ(g.degree(0), 2u);   // root
    EXPECT_EQ(g.degree(14), 1u);  // leaf
}

TEST(Workload, ErdosRenyiConnected) {
    Rng rng(3);
    auto g = wl::make_erdos_renyi(40, 0.12, rng);
    EXPECT_EQ(g.node_count(), 40u);
    EXPECT_TRUE(is_connected(g));
}

TEST(Workload, RandomRegularIsRegularAndSimple) {
    Rng rng(4);
    for (std::size_t d : {3u, 4u, 6u}) {
        auto g = wl::make_random_regular(30, d, rng);
        for (NodeId v : g.nodes()) EXPECT_EQ(g.degree(v), d);
        EXPECT_EQ(g.edge_count(), 30u * d / 2);
        EXPECT_TRUE(is_connected(g));
    }
}

TEST(Workload, RandomRegularOddProductRejected) {
    Rng rng(5);
    EXPECT_THROW(wl::make_random_regular(7, 3, rng), xheal::util::ContractViolation);
}

TEST(Workload, BarabasiAlbertShape) {
    Rng rng(6);
    auto g = wl::make_barabasi_albert(50, 3, rng);
    EXPECT_EQ(g.node_count(), 50u);
    // Seed clique C(4,2)=6 edges + 46 new nodes * 3 edges.
    EXPECT_EQ(g.edge_count(), 6u + 46u * 3u);
    EXPECT_TRUE(is_connected(g));
    // Newcomers have degree >= m = 3.
    for (NodeId v : g.nodes()) EXPECT_GE(g.degree(v), 3u);
}

TEST(Workload, BarabasiAlbertHasHubs) {
    Rng rng(7);
    auto g = wl::make_barabasi_albert(200, 2, rng);
    // Preferential attachment produces a hub far above the minimum degree.
    EXPECT_GE(g.max_degree(), 12u);
}

TEST(Workload, DumbbellShape) {
    auto g = wl::make_dumbbell(5);
    EXPECT_EQ(g.node_count(), 10u);
    EXPECT_EQ(g.edge_count(), 2u * 10u + 1u);
    EXPECT_TRUE(is_connected(g));
}

TEST(Workload, PetersenShape) {
    auto g = wl::make_petersen();
    EXPECT_EQ(g.node_count(), 10u);
    EXPECT_EQ(g.edge_count(), 15u);
    for (NodeId v : g.nodes()) EXPECT_EQ(g.degree(v), 3u);
    EXPECT_EQ(diameter_exact(g), std::optional<std::size_t>{2});
}

TEST(Workload, HGraphProjectionShape) {
    Rng rng(8);
    auto g = wl::make_hgraph_graph(50, 3, rng);
    EXPECT_EQ(g.node_count(), 50u);
    EXPECT_TRUE(is_connected(g));
    for (NodeId v : g.nodes()) {
        EXPECT_GE(g.degree(v), 2u);
        EXPECT_LE(g.degree(v), 6u);
    }
}

// make_hgraph_graph fills the graph in one pass from CSR rows. It must build
// exactly the graph of adding the nodes and then each projection pair by
// add_black_edge, and leave the rng where that build leaves it (the master
// stream goes on to drive the adversary). Sizes 3-5 are where the d cycles
// overlap and most pairs repeat.
TEST(Workload, HGraphBuildEqualsIncrementalBuild) {
    for (std::size_t d : {1u, 2u, 3u}) {
        for (std::size_t n : {3u, 4u, 5u, 1000u, 100000u}) {
            SCOPED_TRACE("n=" + std::to_string(n) + " d=" + std::to_string(d));
            Rng built_rng(n * 31 + d), ref_rng(n * 31 + d);
            Graph built = wl::make_hgraph_graph(n, d, built_rng);

            std::vector<NodeId> members(n);
            std::iota(members.begin(), members.end(), NodeId{0});
            xheal::expander::HGraph h(members, d, ref_rng);
            Graph ref;
            for (std::size_t i = 0; i < n; ++i) ref.add_node();
            for (const auto& [u, v] : h.edges()) ref.add_black_edge(u, v);

            EXPECT_EQ(built_rng.uniform01(), ref_rng.uniform01());
            ASSERT_EQ(built.node_count(), ref.node_count());
            EXPECT_EQ(built.next_id(), ref.next_id());
            EXPECT_EQ(built.edge_count(), ref.edge_count());
            EXPECT_EQ(built.max_degree(), ref.max_degree());
            EXPECT_EQ(built.min_degree(), ref.min_degree());
            EXPECT_EQ(xheal::scenario::graph_fingerprint(built),
                      xheal::scenario::graph_fingerprint(ref));
            std::size_t mismatched_rows = 0;
            for (NodeId v : ref.nodes()) {
                auto a = built.row(v), b = ref.row(v);
                bool same = a.size() == b.size();
                for (std::size_t k = 0; same && k < a.size(); ++k)
                    same = a[k].first == b[k].first && a[k].second.black &&
                           b[k].second.black && a[k].second.colors == b[k].second.colors;
                if (!same) ++mismatched_rows;
            }
            EXPECT_EQ(mismatched_rows, 0u);
        }
    }
}

TEST(Workload, GeneratorsAreDeterministic) {
    Rng a(99), b(99);
    auto g1 = wl::make_erdos_renyi(20, 0.3, a);
    auto g2 = wl::make_erdos_renyi(20, 0.3, b);
    EXPECT_EQ(g1.edge_count(), g2.edge_count());
    g1.for_each_edge([&](NodeId u, NodeId v, const EdgeClaims&) {
        EXPECT_TRUE(g2.has_edge(u, v));
    });
}

}  // namespace
