#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/network.hpp"
#include "util/expects.hpp"

namespace {

using namespace xheal::sim;
using xheal::graph::NodeId;
using xheal::util::ContractViolation;

TEST(Network, MessagesDeliveredNextRound) {
    Network net;
    std::vector<int> received;
    net.add_node(1, [&](const Message& m, Context&) { received.push_back(m.type); });
    net.post(0, 1, 42);
    EXPECT_TRUE(received.empty());  // not yet delivered
    EXPECT_EQ(net.step(), 1u);
    EXPECT_EQ(received, std::vector<int>{42});
    EXPECT_EQ(net.rounds_executed(), 1u);
    EXPECT_EQ(net.messages_sent(), 1u);
}

TEST(Network, StepOnIdleChargesNoRound) {
    Network net;
    net.add_node(1);
    EXPECT_EQ(net.step(), 0u);
    EXPECT_EQ(net.rounds_executed(), 0u);
}

TEST(Network, RepliesArriveOneRoundLater) {
    Network net;
    int pongs = 0;
    net.add_node(1, [&](const Message& m, Context& ctx) {
        if (m.type == 1) ctx.send(m.from, 2);  // ping -> pong
    });
    net.add_node(2, [&](const Message& m, Context&) {
        if (m.type == 2) ++pongs;
    });
    net.post(2, 1, 1);
    net.step();  // ping delivered, pong enqueued
    EXPECT_EQ(pongs, 0);
    net.step();
    EXPECT_EQ(pongs, 1);
    EXPECT_EQ(net.messages_sent(), 2u);
    EXPECT_EQ(net.rounds_executed(), 2u);
}

TEST(Network, MessagesToRemovedNodesDropSilently) {
    Network net;
    net.add_node(1);
    net.add_node(2);
    net.post(1, 2, 7);
    net.remove_node(2);
    EXPECT_EQ(net.step(), 0u);  // dropped on delivery
    EXPECT_EQ(net.messages_sent(), 1u);  // still counted as sent
}

TEST(Network, RunUntilQuiescent) {
    // A relay chain: node i forwards to i+1.
    Network net;
    for (NodeId i = 0; i < 5; ++i) {
        net.add_node(i, [](const Message& m, Context& ctx) {
            if (ctx.self() < 4) ctx.send(ctx.self() + 1, m.type);
        });
    }
    net.post(99, 0, 5);
    std::size_t rounds = net.run();
    EXPECT_EQ(rounds, 5u);  // 0->1->2->3->4 then quiescent
    EXPECT_TRUE(net.idle());
    EXPECT_EQ(net.messages_sent(), 5u);
}

TEST(Network, RunRespectsMaxRounds) {
    // Two nodes bouncing forever.
    Network net;
    auto bounce = [](const Message& m, Context& ctx) { ctx.send(m.from, m.type); };
    net.add_node(1, bounce);
    net.add_node(2, bounce);
    net.post(1, 2, 0);
    std::size_t rounds = net.run(10);
    EXPECT_EQ(rounds, 10u);
    EXPECT_FALSE(net.idle());
}

TEST(Network, DuplicateNodeRejected) {
    Network net;
    net.add_node(1);
    EXPECT_THROW(net.add_node(1), ContractViolation);
    EXPECT_THROW(net.remove_node(5), ContractViolation);
}

TEST(Network, PayloadRoundTrips) {
    // One inline 64-bit word, carried bit for bit through post and send.
    Network net;
    std::vector<std::uint64_t> got;
    net.add_node(1, [&](const Message& m, Context& ctx) {
        got.push_back(m.payload);
        if (m.type == 3) ctx.send(1, 4, m.payload ^ ~std::uint64_t{0});
    });
    net.post(0, 1, 3, 0x8000'0000'dead'beefull);
    net.run();
    EXPECT_EQ(got, (std::vector<std::uint64_t>{0x8000'0000'dead'beefull,
                                               0x7fff'ffff'2152'4110ull}));
}

TEST(Network, BroadcastWaveCountsRoundsOnce) {
    // One sender fans out to 10 receivers: 10 messages, 1 round.
    Network net;
    for (NodeId i = 0; i < 11; ++i) net.add_node(i);
    for (NodeId i = 1; i < 11; ++i) net.post(0, i, 1);
    net.step();
    EXPECT_EQ(net.messages_sent(), 10u);
    EXPECT_EQ(net.rounds_executed(), 1u);
}

// ---- round-numbering convention (pinned; see network.hpp header) ----

TEST(Network, RoundConventionDeliveryRoundIsOneBased) {
    // A pre-step post is a round-0 send: delivered in round 1, and
    // Context::round() inside the handler reports exactly that. A reply
    // sent from round r arrives in round r + 1.
    Network net;
    std::vector<std::size_t> delivery_rounds;
    net.add_node(1, [&](const Message& m, Context& ctx) {
        delivery_rounds.push_back(ctx.round());
        if (m.type == 1) ctx.send(1, 2);  // self-reply, next round
    });
    net.post(0, 1, 1);
    net.run();
    EXPECT_EQ(delivery_rounds, (std::vector<std::size_t>{1, 2}));
    EXPECT_EQ(net.rounds_executed(), 2u);
}

TEST(Network, RoundConventionLatencyDelaysDelivery) {
    // latency = 2: a round-0 send is delivered in round 1 + 2 = 3. The two
    // gap steps deliver nothing but are charged as rounds (the network is
    // not idle, time passes).
    Network net;
    std::size_t delivered_in = 0;
    net.add_node(1, [&](const Message&, Context& ctx) { delivered_in = ctx.round(); });
    net.set_fault_model({0.0, 2});
    net.post(0, 1, 7);
    EXPECT_EQ(net.step(), 0u);  // gap round 1
    EXPECT_EQ(net.step(), 0u);  // gap round 2
    EXPECT_FALSE(net.idle());
    EXPECT_EQ(net.step(), 1u);  // delivery round 3
    EXPECT_EQ(delivered_in, 3u);
    EXPECT_EQ(net.rounds_executed(), 3u);
    EXPECT_TRUE(net.idle());
}

TEST(Network, InFlightMessagesKeepTheirStampedDelay) {
    // Lowering latency mid-run must not accelerate messages already in
    // flight; new sends use the new model.
    Network net;
    std::vector<int> order;
    net.add_node(1, [&](const Message& m, Context&) { order.push_back(m.type); });
    net.set_fault_model({0.0, 3});
    net.post(0, 1, 100);            // due in round 4
    net.set_fault_model({0.0, 0});
    net.post(0, 1, 200);            // due in round 1
    net.run();
    EXPECT_EQ(order, (std::vector<int>{200, 100}));
    EXPECT_EQ(net.rounds_executed(), 4u);
}

TEST(Network, RaisingLatencyMidRunKeepsInFlightOrder) {
    // Raising the latency while messages are in flight grows the round
    // ring: first 0 -> 3 before any round, then 3 -> 5 one round in, when
    // the due bucket is no longer the ring's first. Every in-flight message
    // keeps the delivery round it was stamped with.
    Network net;
    std::vector<std::pair<int, std::size_t>> order;  // (type, delivery round)
    net.add_node(1, [&](const Message& m, Context& ctx) {
        order.emplace_back(m.type, ctx.round());
        if (m.type == 1) ctx.send(1, 10);  // sent in round 1 at latency 3
    });
    net.post(0, 1, 1);  // latency 0: due in round 1
    net.set_fault_model({0.0, 3});
    net.post(0, 1, 2);  // due in round 4
    EXPECT_EQ(net.step(), 1u);  // round 1; the reply is due in round 5
    net.set_fault_model({0.0, 5});
    net.post(0, 1, 3);  // sent in round 1: due in round 7
    net.set_fault_model({0.0, 0});
    net.post(0, 1, 4);  // due in round 2
    net.run();
    EXPECT_EQ(order, (std::vector<std::pair<int, std::size_t>>{
                         {1, 1}, {4, 2}, {2, 4}, {10, 5}, {3, 7}}));
    EXPECT_EQ(net.rounds_executed(), 7u);
    EXPECT_TRUE(net.idle());
}

// ---- fault injection ----

TEST(Network, DropStreamIsDeterministicPerSeed) {
    auto run_once = [](std::uint64_t seed) {
        Network net;
        std::vector<int> got;
        net.add_node(1, [&](const Message& m, Context&) { got.push_back(m.type); });
        net.seed_drop_stream(seed);
        net.set_fault_model({0.5, 0});
        for (int i = 0; i < 64; ++i) net.post(0, 1, i);
        net.run();
        return std::pair{got, net.messages_dropped()};
    };
    auto [a, dropped_a] = run_once(42);
    auto [b, dropped_b] = run_once(42);
    EXPECT_EQ(a, b);  // same seed, same survivors in the same order
    EXPECT_EQ(dropped_a, dropped_b);
    // Sanity: at drop=0.5 over 64 coins, both outcomes occur.
    EXPECT_GT(dropped_a, 0u);
    EXPECT_LT(dropped_a, 64u);
    EXPECT_EQ(a.size() + dropped_a, 64u);
}

TEST(Network, DroppedMessagesStillBilledAsSent) {
    Network net;
    net.add_node(1);
    net.set_fault_model({1.0, 0});  // certain loss
    net.post(0, 1, 1);
    net.post(0, 1, 2);
    EXPECT_TRUE(net.idle());        // nothing actually in flight
    EXPECT_EQ(net.messages_sent(), 2u);
    EXPECT_EQ(net.messages_dropped(), 2u);
    EXPECT_EQ(net.run(), 0u);
}

// ---- mid-step mutation safety (regression: self-destructing handler) ----

TEST(Network, RemoveNodeFromWithinHandlerDefersToRoundEnd) {
    Network net;
    int delivered = 0;
    net.add_node(1, [&](const Message&, Context&) {
        ++delivered;
        net.remove_node(1);
    });
    net.post(0, 1, 1);
    net.post(0, 1, 2);
    net.step();  // both delivered this round, removal applies after
    EXPECT_EQ(delivered, 2);
    EXPECT_FALSE(net.has_node(1));
    EXPECT_EQ(net.node_count(), 0u);
}

TEST(Network, AddNodeFromWithinHandlerRejected) {
    // Growing the handler slots mid-round would move the std::function that
    // is executing, so add_node is a precondition violation there.
    Network net;
    bool threw = false;
    net.add_node(1, [&](const Message&, Context&) {
        try {
            net.add_node(1000);
        } catch (const ContractViolation&) {
            threw = true;
        }
    });
    net.post(0, 1, 1);
    net.step();
    EXPECT_TRUE(threw);
    EXPECT_FALSE(net.has_node(1000));
    EXPECT_EQ(net.node_count(), 1u);
    net.add_node(1000);  // between rounds: fine
    EXPECT_TRUE(net.has_node(1000));
}

}  // namespace
