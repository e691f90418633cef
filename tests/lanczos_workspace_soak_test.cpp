// Probe-solve allocation soak: the sparse lambda2 probe keeps its Lanczos
// basis, iteration vectors, tridiagonal eigensolver buffers and Ritz
// output in a ProbeEngine-owned workspace, so once the buffers have seen
// their peak a warm-started solve allocates nothing. This soak churns a
// random-regular graph between solves (the snapshot sync runs outside the
// counted region) and PINS the steady-state budget of the solves at ZERO,
// after an adaptive warmup like connect_units_soak_test's.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "graph/graph.hpp"
#include "spectral/probes.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"

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
using graph::Graph;
using graph::NodeId;

std::uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

/// Move one random edge: drop an edge of a random node and attach it to
/// another random node. Node and edge counts stay put, so the workload is
/// stationary and every solve runs at the same n.
void rewire(Graph& g, util::Rng& rng, std::size_t n) {
    for (int tries = 0; tries < 16; ++tries) {
        NodeId u = static_cast<NodeId>(rng.index(n));
        NodeId v = static_cast<NodeId>(rng.index(n));
        if (u == v || g.degree(u) < 3 || g.has_edge(u, v)) continue;
        auto nbrs = g.neighbors(u);
        NodeId w = nbrs[rng.index(nbrs.size())];
        if (g.degree(w) < 3) continue;
        g.remove_black_claim(u, w);
        g.add_black_edge(u, v);
        return;
    }
}

}  // namespace

TEST(LanczosWorkspaceSoak, SteadyStateProbeSolvesAllocateNothing) {
    constexpr std::size_t kNodes = 600;
    util::Rng topo_rng(31);
    Graph g = workload::make_random_regular(kNodes, 6, topo_rng);
    g.set_journal_limit(1u << 20);
    spectral::ProbeEngine engine;
    spectral::IncrementalSnapshot snap;
    util::Rng rng(5);

    auto step = [&]() {
        for (int i = 0; i < 6; ++i) rewire(g, rng, kNodes);
        snap.note(g, g.journal(), g.journal_overflowed());
        g.clear_journal();
        snap.sync(g);
    };

    // Adaptive warmup: solves until two consecutive ones allocate nothing.
    std::size_t warm_solves = 0;
    std::size_t zero_streak = 0;
    while (zero_streak < 2) {
        ASSERT_LT(warm_solves, 100u) << "solves never stopped allocating";
        step();
        std::uint64_t before = allocations();
        double value = engine.lambda2_csr(snap.csr());
        zero_streak = allocations() == before ? zero_streak + 1 : 0;
        ASSERT_GT(value, 0.0);
        ++warm_solves;
    }

    // Counted window: both entry points, the gated one and the two-step
    // solve-then-commit that takes a component count.
    std::uint64_t allocated = 0;
    for (int i = 0; i < 20; ++i) {
        step();
        std::uint64_t before = allocations();
        std::size_t components = engine.component_count_csr(snap.csr());
        double counted =
            engine.lambda2_commit(snap.csr(), components, engine.lambda2_solve(snap.csr()));
        double gated = engine.lambda2_csr(snap.csr());
        allocated += allocations() - before;
        ASSERT_EQ(components, 1u);
        ASSERT_GT(counted, 0.0);
        ASSERT_GT(gated, 0.0);
    }
    EXPECT_EQ(allocated, 0u) << allocated << " allocations over 40 warm solves after "
                             << warm_solves << " warmup solves";
}
