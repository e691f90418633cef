// Message-simulator soak: bursts of posts through a lossy, latent network of
// acking nodes, asserting — via a counting global allocator — ZERO heap
// allocations in post(), step() and run() once the handler slots and the
// round ring's buckets have grown to the workload's peak sizes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "sim/network.hpp"

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

using namespace xheal::sim;
using xheal::graph::NodeId;

std::uint64_t allocations() {
    return g_allocations.load(std::memory_order_relaxed);
}

TEST(SimNetworkSoak, LossyAckBurstsAllocateNothingAtCapacity) {
    constexpr NodeId nodes = 64;
    Network net;
    net.seed_drop_stream(2024);
    net.set_fault_model({0.1, 2});
    std::uint64_t acks = 0;
    for (NodeId v = 0; v < nodes; ++v) {
        net.add_node(v, [&acks](const Message& m, Context& ctx) {
            if (m.type == tag::ack) {
                ++acks;
                return;
            }
            if (m.ack_seq != 0) ctx.send(m.from, tag::ack, m.ack_seq);
        });
    }

    // One burst: 40 waves, each posting one ack-requesting message from
    // every node and running the network dry.
    std::uint64_t seq = 0;
    auto burst = [&] {
        for (int wave = 0; wave < 40; ++wave) {
            for (NodeId v = 0; v < nodes; ++v) {
                ++seq;
                net.post(Message{v, static_cast<NodeId>((v * 7 + wave + 1) % nodes),
                                 tag::flood, 0, seq});
            }
            net.run();
            ASSERT_TRUE(net.idle());
        }
    };

    burst();  // warm-up: every ring bucket reaches its peak capacity
    const std::uint64_t dropped_warm = net.messages_dropped();
    const std::uint64_t acks_warm = acks;

    std::uint64_t before = allocations();
    burst();
    std::uint64_t after = allocations();
    EXPECT_EQ(after - before, 0u)
        << "lossy post/run bursts allocated " << (after - before) << " times";

    // The soak really was lossy and acked: drops occurred in the counted
    // burst, and every post not lost on the way out or back was acked.
    EXPECT_GT(net.messages_dropped(), dropped_warm);
    EXPECT_GT(acks, acks_warm);
    EXPECT_EQ(acks, 2 * 40 * nodes - net.messages_dropped());
}

}  // namespace
