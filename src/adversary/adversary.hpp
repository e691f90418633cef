// Adversary strategies for the node insert/delete model (paper Section 2).
// The adversary knows the topology and the algorithm but not the healer's
// private random bits. Deletion strategies pick a victim among alive nodes;
// insertion strategies pick the neighbor set for a new node.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "core/cloud_registry.hpp"
#include "core/session.hpp"
#include "util/rng.hpp"

namespace xheal::adversary {

class DeletionStrategy {
public:
    virtual ~DeletionStrategy() = default;
    virtual std::string_view name() const = 0;
    /// Pick a victim among the alive nodes; invalid_node to skip.
    virtual graph::NodeId pick(const core::HealingSession& session, util::Rng& rng) = 0;
};

/// Uniform random victim.
class RandomDeletion : public DeletionStrategy {
public:
    std::string_view name() const override { return "random"; }
    graph::NodeId pick(const core::HealingSession& session, util::Rng& rng) override;
};

/// Always the highest-degree alive node (hub attack; ties by lowest id).
class MaxDegreeDeletion : public DeletionStrategy {
public:
    std::string_view name() const override { return "max-degree"; }
    graph::NodeId pick(const core::HealingSession& session, util::Rng& rng) override;
};

/// Always the lowest-degree alive node.
class MinDegreeDeletion : public DeletionStrategy {
public:
    std::string_view name() const override { return "min-degree"; }
    graph::NodeId pick(const core::HealingSession& session, util::Rng& rng) override;
};

/// Prefers articulation points (cut vertices) — the most damaging victim a
/// topology-aware adversary can pick; falls back to max degree.
class CutPointDeletion : public DeletionStrategy {
public:
    std::string_view name() const override { return "cut-point"; }
    graph::NodeId pick(const core::HealingSession& session, util::Rng& rng) override;
};

/// Targets nodes with the most colored (healer-added) incident edges:
/// stresses cloud repair paths. Pure topology knowledge.
class ColoredDegreeDeletion : public DeletionStrategy {
public:
    std::string_view name() const override { return "colored-degree"; }
    graph::NodeId pick(const core::HealingSession& session, util::Rng& rng) override;
};

/// White-box stress strategy: reads the Xheal registry and kills bridge
/// (non-free) nodes first, starving clouds of free nodes to force the
/// costly combine path. Used by the amortization bench and failure tests.
class BridgeHunterDeletion : public DeletionStrategy {
public:
    explicit BridgeHunterDeletion(const core::CloudRegistry* registry)
        : registry_(registry) {}
    std::string_view name() const override { return "bridge-hunter"; }
    graph::NodeId pick(const core::HealingSession& session, util::Rng& rng) override;

private:
    const core::CloudRegistry* registry_;
};

/// Weighted mixture of deletion strategies (scenario grammar v2
/// `deleter=k1:w1,k2:w2`): each pick first draws which member acts,
/// proportionally to the weights, then delegates. One uniform01 draw per
/// pick regardless of member count, so traces stay stable when weights
/// move. Per-member pick counts are exposed for the statistical tests
/// (chi-square of realized vs configured mixture).
class CompositeDeletion : public DeletionStrategy {
public:
    struct Member {
        std::unique_ptr<DeletionStrategy> strategy;
        double weight = 1.0;  ///< positive; normalized internally
    };

    /// Requires at least one member and a positive weight total.
    explicit CompositeDeletion(std::vector<Member> members);

    std::string_view name() const override { return "composite"; }
    graph::NodeId pick(const core::HealingSession& session, util::Rng& rng) override;

    /// How many picks each member has served, in construction order.
    const std::vector<std::size_t>& pick_counts() const { return counts_; }

private:
    std::vector<Member> members_;
    std::vector<double> cumulative_;  ///< normalized inclusive prefix sums
    std::vector<std::size_t> counts_;
};

class InsertionStrategy {
public:
    virtual ~InsertionStrategy() = default;
    virtual std::string_view name() const = 0;
    /// Pick the neighbor set (non-empty unless the graph is empty).
    virtual std::vector<graph::NodeId> pick_neighbors(const core::HealingSession& session,
                                                      util::Rng& rng) = 0;
};

/// Attach to k random alive nodes.
class RandomAttach : public InsertionStrategy {
public:
    explicit RandomAttach(std::size_t k) : k_(k) {}
    std::string_view name() const override { return "random-attach"; }
    std::vector<graph::NodeId> pick_neighbors(const core::HealingSession& session,
                                              util::Rng& rng) override;

private:
    std::size_t k_;
};

/// Attach to k nodes drawn proportionally to degree (rich-get-richer).
class PreferentialAttach : public InsertionStrategy {
public:
    explicit PreferentialAttach(std::size_t k) : k_(k) {}
    std::string_view name() const override { return "preferential-attach"; }
    std::vector<graph::NodeId> pick_neighbors(const core::HealingSession& session,
                                              util::Rng& rng) override;

private:
    std::size_t k_;
};

}  // namespace xheal::adversary
