// Expander-cloud bookkeeping shared by the centralized and distributed
// Xheal implementations.
//
// A *primary* cloud is the kappa-regular expander (or clique) Xheal builds
// over the neighbors of a deleted node; a *secondary* cloud connects one
// "bridge" node from each of several primary clouds. Nodes that belong to no
// secondary cloud are *free*; a bridge node belongs to exactly one secondary
// cloud and is associated with at most one primary cloud on whose behalf it
// bridges (paper Section 3).
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "expander/cloud_topology.hpp"
#include "graph/types.hpp"

namespace xheal::core {

enum class CloudKind { primary, secondary };

struct Cloud {
    graph::ColorId color = graph::invalid_color;
    CloudKind kind = CloudKind::primary;
    /// The cloud's edges exist only as claims of `color` in the network
    /// graph, always exactly the topology's projection (CloudRegistry keeps
    /// them in step); no copy is kept here.
    expander::CloudTopology topology;

    /// Secondary clouds only: which primary cloud each bridge member
    /// represents; invalid_color for bridges that entered as singleton units
    /// (e.g. black neighbors of a deleted node). Sorted by bridge id (a flat
    /// vector so pooled clouds reuse capacity and iteration is ordered —
    /// consumers that feed rng-driven choices rely on the deterministic
    /// order).
    std::vector<std::pair<graph::NodeId, graph::ColorId>> bridge_assoc;

    /// Association of bridge v, or invalid_color when v has none recorded.
    graph::ColorId bridge_assoc_of(graph::NodeId v) const {
        auto it = assoc_lower_bound(v);
        return it != bridge_assoc.end() && it->first == v ? it->second
                                                         : graph::invalid_color;
    }
    bool has_bridge_assoc(graph::NodeId v) const {
        auto it = assoc_lower_bound(v);
        return it != bridge_assoc.end() && it->first == v;
    }
    /// Insert or overwrite v's association.
    void set_bridge_assoc(graph::NodeId v, graph::ColorId c) {
        auto it = bridge_assoc.begin() + (assoc_lower_bound(v) - bridge_assoc.begin());
        if (it != bridge_assoc.end() && it->first == v) it->second = c;
        else bridge_assoc.insert(it, {v, c});
    }
    /// Drop v's association; returns false if absent.
    bool erase_bridge_assoc(graph::NodeId v) {
        auto at = assoc_lower_bound(v) - bridge_assoc.begin();
        if (static_cast<std::size_t>(at) == bridge_assoc.size() ||
            bridge_assoc[at].first != v)
            return false;
        bridge_assoc.erase(bridge_assoc.begin() + at);
        return true;
    }

    /// Distributed invariants (paper Section 5, Case 1): every cloud keeps a
    /// randomly chosen leader plus a vice-leader that takes over when the
    /// leader is deleted.
    graph::NodeId leader = graph::invalid_node;
    graph::NodeId vice_leader = graph::invalid_node;

    /// Number of half-loss reconstructions this cloud has undergone.
    std::size_t rebuild_count = 0;

    Cloud(graph::ColorId c, CloudKind k, expander::CloudTopology topo)
        : color(c), kind(k), topology(std::move(topo)) {}

    /// Re-initialize the bookkeeping for pooled reuse under a fresh color.
    /// The topology is reset separately (CloudTopology::reset) so its
    /// buffers — and this struct's vectors — keep their capacity.
    void reset(graph::ColorId c, CloudKind k) {
        color = c;
        kind = k;
        bridge_assoc.clear();
        leader = graph::invalid_node;
        vice_leader = graph::invalid_node;
        rebuild_count = 0;
    }

    /// Id-compaction support: rewrite every id this cloud carries through
    /// the ascending old->new map. bridge_assoc stays sorted because the
    /// map is monotone over live ids.
    void remap_ids(const std::vector<graph::NodeId>& old_to_new) {
        topology.remap_ids(old_to_new);
        for (auto& [v, c] : bridge_assoc) v = old_to_new[v];
        if (leader != graph::invalid_node) leader = old_to_new[leader];
        if (vice_leader != graph::invalid_node) vice_leader = old_to_new[vice_leader];
    }

    std::size_t size() const { return topology.size(); }
    bool has_member(graph::NodeId v) const { return topology.contains(v); }

private:
    std::vector<std::pair<graph::NodeId, graph::ColorId>>::const_iterator
    assoc_lower_bound(graph::NodeId v) const {
        return std::lower_bound(
            bridge_assoc.begin(), bridge_assoc.end(), v,
            [](const std::pair<graph::NodeId, graph::ColorId>& e, graph::NodeId id) {
                return e.first < id;
            });
    }
};

}  // namespace xheal::core
