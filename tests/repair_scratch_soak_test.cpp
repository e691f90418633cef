// Repair-path soak: 2k-step H-graph splice/rebuild churn through the cloud
// registry and the healer, asserting kappa-regularity of the projection,
// claim-set consistency (CloudRegistry::verify), and — via a counting
// global allocator — ZERO steady-state heap allocations in the repair path
// once the scratch buffers have warmed up to the workload's peak sizes.
//
// "Steady state" is the paper's common case: incremental splices, claim
// churn, leadership repair and even the half-loss rebuild (reshuffled in
// place). Structural events that create or dissolve clouds allocate by
// design and are excluded by construction of the workloads.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/cloud_registry.hpp"
#include "core/xheal_healer.hpp"
#include "expander/hgraph.hpp"
#include "util/rng.hpp"

// ----- counting global allocator -----------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace xheal;
using graph::ColorId;
using graph::Graph;
using graph::NodeId;

std::uint64_t allocations() {
    return g_allocations.load(std::memory_order_relaxed);
}

// ----- H-graph layer ------------------------------------------------------

TEST(RepairScratchSoak, HGraphSpliceRebuildChurnIsAllocationFreeAtCapacity) {
    util::Rng rng(101);
    std::vector<NodeId> initial;
    for (NodeId v = 0; v < 64; ++v) initial.push_back(v);
    expander::HGraph h(initial, 3, rng);
    expander::HGraph::SpliceDelta delta;

    std::vector<NodeId> inside = initial;  // external member mirror
    std::vector<NodeId> outside;
    for (NodeId v = 64; v < 192; ++v) outside.push_back(v);

    auto churn_step = [&](std::size_t step) {
        delta.clear();
        bool do_remove = h.size() > 8 && (step % 2 == 0 || outside.empty());
        if (do_remove) {
            std::size_t at = rng.index(inside.size());
            NodeId v = inside[at];
            inside[at] = inside.back();
            inside.pop_back();
            h.remove(v, &delta);
            outside.push_back(v);
        } else {
            std::size_t at = rng.index(outside.size());
            NodeId v = outside[at];
            outside[at] = outside.back();
            outside.pop_back();
            h.insert(v, rng, &delta);
            inside.push_back(v);
        }
        if (step % 97 == 0) h.rebuild(rng);  // periodic in-place rebuild
    };

    // Warmup: cycle every id through the structure so the slot free list,
    // the index vector and the delta buffers reach their peaks.
    for (std::size_t step = 0; step < 1000; ++step) churn_step(step);
    h.validate();

    std::uint64_t before = allocations();
    for (std::size_t step = 0; step < 2000; ++step) churn_step(step);
    std::uint64_t after = allocations();
    EXPECT_EQ(after - before, 0u)
        << "H-graph splice churn allocated " << (after - before) << " times";

    h.validate();
    // kappa-regularity of the projection: every member has degree <= 2d.
    auto edges = h.edges();
    std::vector<std::size_t> degree(192, 0);
    for (const auto& [a, b] : edges) {
        ++degree[a];
        ++degree[b];
    }
    for (NodeId v : h.members_sorted()) {
        EXPECT_LE(degree[v], h.kappa());
        EXPECT_GE(degree[v], 1u);
    }
}

// ----- registry layer -----------------------------------------------------

/// Churn one H-graph-mode cloud through CloudRegistry::insert_member /
/// remove_member (the sharing / bridge-replacement path: members leave the
/// cloud but stay alive in the graph, so they can rejoin later).
TEST(RepairScratchSoak, RegistrySpliceRebuildChurnZeroSteadyStateAllocations) {
    Graph g;
    constexpr std::size_t population = 96;
    for (std::size_t i = 0; i < population; ++i) g.add_node();

    util::Rng rng(7);
    core::CloudRegistry registry(/*d=*/2, /*rebuild_on_half_loss=*/true);

    std::vector<NodeId> initial;
    for (NodeId v = 0; v < 48; ++v) initial.push_back(v);
    ColorId color = registry.create_cloud(g, core::CloudKind::primary, initial, rng);

    std::vector<NodeId> outside;  // alive nodes currently not in the cloud
    for (NodeId v = 48; v < population; ++v) outside.push_back(v);

    std::size_t kappa = registry.kappa();
    auto churn_step = [&](std::size_t step) {
        const core::Cloud* cloud = registry.find(color);
        bool can_shrink = cloud->size() > kappa + 3;  // never leave H-graph mode
        bool do_remove = can_shrink && (step % 3 != 0 || outside.empty());
        if (do_remove) {
            const auto& members = cloud->topology.members();
            NodeId v = members[rng.index(members.size())];
            registry.remove_member(g, color, v, rng, /*deleted_from_graph=*/false);
            outside.push_back(v);
        } else if (!outside.empty()) {
            std::size_t at = rng.index(outside.size());
            NodeId v = outside[at];
            outside[at] = outside.back();
            outside.pop_back();
            registry.insert_member(g, color, v, rng);
        }
    };

    // Warmup: let every node pass through the cloud at least once so the
    // membership vectors, claim mirrors, adjacency rows and delta scratch
    // all reach their peak capacities (including half-loss rebuilds).
    for (std::size_t step = 0; step < 3000; ++step) churn_step(step);
    registry.verify(g);

    // Soak: 2000 steady-state steps must not allocate at all.
    std::uint64_t before = allocations();
    for (std::size_t step = 0; step < 2000; ++step) churn_step(step + 1);
    std::uint64_t after = allocations();
    EXPECT_EQ(after - before, 0u)
        << "repair-path splice churn allocated " << (after - before) << " times";

    // The drain-down phase of the churn crossed the half-loss threshold
    // (rebuilds *inside* the counted window are exercised by the H-graph
    // and healer soaks: once the construction baseline shrinks to the
    // population floor, balanced churn cannot re-trigger the rule).
    EXPECT_GE(registry.find(color)->rebuild_count, 1u);

    // kappa-regularity: every member's claim degree stays within kappa in
    // H-graph mode (2d cycle edges, fewer after simple-graph projection).
    const core::Cloud* cloud = registry.find(color);
    ASSERT_EQ(cloud->topology.mode(), expander::CloudTopology::Mode::hgraph);
    for (NodeId v : cloud->topology.members()) {
        std::size_t claim_degree = 0;
        for (const auto& [w, claims] : g.row(v)) claim_degree += claims.has_color(color);
        EXPECT_LE(claim_degree, kappa);
        EXPECT_GE(claim_degree, 1u);
    }
    // Claim-set consistency: the registry's full structural verification.
    registry.verify(g);
}

// ----- healer layer -------------------------------------------------------

/// The healer's common steady-state repair: delete a member of one big
/// primary cloud with no black edges — FixPrimary (splice or in-place
/// rebuild), nothing structural. After warmup, on_delete must not allocate.
TEST(RepairScratchSoak, HealerSteadyStateDeleteZeroAllocations) {
    Graph g;
    constexpr std::size_t population = 2400;
    for (std::size_t i = 0; i < population; ++i) g.add_node();

    core::XhealHealer healer(core::XhealConfig{/*d=*/2, /*seed=*/77});
    // One primary cloud over everyone via the healer's own Case 1: a hub
    // with black edges to all others dies and its neighbors become the
    // cloud. From then on every edge in g is cloud-colored, so deleting any
    // member is the pure FixPrimary path.
    for (NodeId v = 1; v < population; ++v) g.add_black_edge(0, v);
    healer.on_delete(g, 0);
    ASSERT_EQ(healer.registry().cloud_count(), 1u);
    ColorId color = healer.registry().colors().front();

    util::Rng pick_rng(13);
    auto victim = [&]() {
        const auto& members = healer.registry().find(color)->topology.members();
        return members[pick_rng.index(members.size())];
    };

    // Warmup: splices plus the first half-loss rebuild.
    for (int i = 0; i < 1200; ++i) healer.on_delete(g, victim());
    std::size_t rebuilds_before = healer.registry().find(color)->rebuild_count;
    EXPECT_GE(rebuilds_before, 1u);

    std::uint64_t before = allocations();
    for (int i = 0; i < 600; ++i) healer.on_delete(g, victim());
    std::uint64_t after = allocations();
    EXPECT_EQ(after - before, 0u)
        << "healer steady-state repair allocated " << (after - before) << " times";

    // The counted window crossed another rebuild threshold.
    EXPECT_GT(healer.registry().find(color)->rebuild_count, rebuilds_before);
    healer.check_consistency(g);
}

}  // namespace
