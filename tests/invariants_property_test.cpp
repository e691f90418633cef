// Parameterized property sweep: for every (initial graph family, adversary
// strategy, kappa) combination, run a churn and assert the full invariant
// set after every step — connectivity, degree bound (Lemma 3), registry
// consistency, reference-edge preservation. This is the main property-based
// harness for the healer.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "adversary/adversary.hpp"
#include "core/invariants.hpp"
#include "core/session.hpp"
#include "core/xheal_healer.hpp"
#include "support/session_check.hpp"
#include "workload/generators.hpp"

namespace {

using namespace xheal;
using namespace xheal::core;
using graph::Graph;
using graph::NodeId;
namespace wl = workload;
namespace adv = adversary;

struct PropertyParam {
    std::string graph_name;
    std::string adversary_name;
    std::size_t d;
    std::size_t steps;
    double delete_fraction;
};

std::string param_name(const ::testing::TestParamInfo<PropertyParam>& info) {
    auto p = info.param;
    std::string s = p.graph_name + "_" + p.adversary_name + "_d" + std::to_string(p.d) +
                    "_s" + std::to_string(p.steps);
    for (char& c : s)
        if (c == '-') c = '_';
    return s;
}

Graph make_initial(const std::string& name, util::Rng& rng) {
    if (name == "cycle") return wl::make_cycle(24);
    if (name == "star") return wl::make_star(23);
    if (name == "grid") return wl::make_grid(5, 5);
    if (name == "er") return wl::make_erdos_renyi(24, 0.18, rng);
    if (name == "regular") return wl::make_random_regular(24, 4, rng);
    if (name == "tree") return wl::make_binary_tree(24);
    if (name == "dumbbell") return wl::make_dumbbell(12);
    throw std::runtime_error("unknown graph " + name);
}

std::unique_ptr<adv::DeletionStrategy> make_adversary(const std::string& name,
                                                      const CloudRegistry* registry) {
    if (name == "random") return std::make_unique<adv::RandomDeletion>();
    if (name == "maxdeg") return std::make_unique<adv::MaxDegreeDeletion>();
    if (name == "mindeg") return std::make_unique<adv::MinDegreeDeletion>();
    if (name == "cut") return std::make_unique<adv::CutPointDeletion>();
    if (name == "colored") return std::make_unique<adv::ColoredDegreeDeletion>();
    if (name == "bridge") return std::make_unique<adv::BridgeHunterDeletion>(registry);
    throw std::runtime_error("unknown adversary " + name);
}

class XhealPropertyTest : public ::testing::TestWithParam<PropertyParam> {};

TEST_P(XhealPropertyTest, InvariantsHoldThroughChurn) {
    const auto& p = GetParam();
    util::Rng rng(0xfeedULL + p.d);
    Graph initial = make_initial(p.graph_name, rng);

    auto healer = std::make_unique<XhealHealer>(XhealConfig{p.d, 1000 + p.d});
    const CloudRegistry* registry = &healer->registry();
    std::size_t kappa = healer->kappa();
    HealingSession session(std::move(initial), std::move(healer));

    auto deleter = make_adversary(p.adversary_name, registry);
    adv::RandomAttach inserter(3);

    for (std::size_t step = 0; step < p.steps; ++step) {
        bool can_delete = session.current().node_count() > 4;
        if (can_delete && rng.chance(p.delete_fraction)) {
            NodeId victim = deleter->pick(session, rng);
            ASSERT_NE(victim, graph::invalid_node);
            session.delete_node(victim);
        } else {
            auto nbrs = inserter.pick_neighbors(session, rng);
            ASSERT_FALSE(nbrs.empty());
            session.insert_node(nbrs);
        }
        ASSERT_NO_THROW(check_session(session, kappa))
            << p.graph_name << "/" << p.adversary_name << " failed at step " << step;
    }
    EXPECT_GT(session.deletions(), 0u);
}

std::vector<PropertyParam> make_params() {
    std::vector<PropertyParam> params;
    for (const char* graph : {"cycle", "star", "grid", "er", "regular", "tree", "dumbbell"}) {
        for (const char* adversary : {"random", "maxdeg", "colored"}) {
            params.push_back({graph, adversary, 2, 60, 0.6});
        }
    }
    // Deeper stress on targeted strategies with scarce free nodes (d = 1).
    params.push_back({"er", "bridge", 1, 80, 0.7});
    params.push_back({"regular", "bridge", 2, 80, 0.7});
    params.push_back({"grid", "cut", 2, 60, 0.6});
    params.push_back({"star", "cut", 1, 60, 0.6});
    // Larger kappa sanity.
    params.push_back({"er", "random", 4, 50, 0.5});
    params.push_back({"cycle", "maxdeg", 4, 50, 0.5});
    // Long-haul soak on the slot-indexed storage: 500 adversarial steps of
    // targeted churn exercise tombstone accumulation, row reuse and the
    // incremental degree bookkeeping far past the short sweeps above.
    params.push_back({"regular", "bridge", 2, 500, 0.55});
    return params;
}

INSTANTIATE_TEST_SUITE_P(Sweep, XhealPropertyTest, ::testing::ValuesIn(make_params()),
                         param_name);

}  // namespace
