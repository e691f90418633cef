#include "core/cloud_registry.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>

#include "util/expects.hpp"
#include "util/sorted_vec.hpp"

namespace xheal::core {

using graph::ColorId;
using graph::Graph;
using graph::NodeId;

CloudRegistry::CloudRegistry(std::size_t d, bool rebuild_on_half_loss)
    : d_(d), rebuild_on_half_loss_(rebuild_on_half_loss) {
    XHEAL_EXPECTS(d >= 1);
}

ColorId CloudRegistry::create_cloud(Graph& g, CloudKind kind,
                                    const std::vector<NodeId>& members, util::Rng& rng,
                                    std::size_t* claims_added) {
    XHEAL_EXPECTS(members.size() >= 2);
    for (NodeId v : members) XHEAL_EXPECTS(g.has_node(v));
    if (kind == CloudKind::secondary) {
        for (NodeId v : members) XHEAL_EXPECTS(is_free(v));
    }

    ColorId color = next_color_++;
    Cloud* cloud;
    if (!free_clouds_.empty()) {
        // Arena path: revive a destroyed cloud in place. reset() clears the
        // bookkeeping and topology.reset consumes exactly the rng draws a
        // fresh construction would, so pooled and fresh clouds behave
        // identically.
        cloud = free_clouds_.back();
        free_clouds_.pop_back();
        cloud->reset(color, kind);
        cloud->topology.reset(members, d_, rng);
    } else {
        pool_.push_back(std::make_unique<Cloud>(
            color, kind, expander::CloudTopology(members, d_, rng)));
        cloud = pool_.back().get();
    }
    publish(color, cloud);
    for (NodeId v : cloud->topology.members()) register_membership(v, *cloud);
    // A fresh color holds no claims yet: claim the whole projection.
    cloud->topology.for_each_pair([&](NodeId u, NodeId v) {
        g.add_color_claim(u, v, color);
        if (claims_added != nullptr) ++*claims_added;
    });
    fix_leadership(*cloud, rng);
    return color;
}

void CloudRegistry::publish(ColorId color, Cloud* cloud) {
    // Colors are issued in order, so the new color is always the window's
    // next slot. Before the storage would grow, drop the dead prefix below
    // head_ (base_ slides up to the oldest live color); grow only if the
    // live span still fills more than three quarters of it, so each slide's
    // memmove is paid for by the quarter of free slots it leaves.
    XHEAL_ASSERT(base_ + directory_.size() == color);
    if (directory_.size() == directory_.capacity()) {
        directory_.erase(directory_.begin(),
                         directory_.begin() + static_cast<std::ptrdiff_t>(head_));
        base_ += static_cast<ColorId>(head_);
        head_ = 0;
        if (4 * directory_.size() > 3 * directory_.capacity())
            directory_.reserve(std::max<std::size_t>(2 * directory_.capacity(), 16));
    }
    directory_.push_back(cloud);
    ++live_clouds_;
}

void CloudRegistry::release_cloud(ColorId color) {
    XHEAL_ASSERT(find(color) != nullptr);
    Cloud*& entry = directory_[color - base_];
    free_clouds_.push_back(entry);
    entry = nullptr;
    --live_clouds_;
    while (head_ < directory_.size() && directory_[head_] == nullptr) ++head_;
}

void CloudRegistry::destroy_cloud(Graph& g, ColorId color, std::size_t* claims_removed) {
    Cloud* cloud = find(color);
    XHEAL_EXPECTS(cloud != nullptr);
    // The claims are exactly the projection (the registry's invariant), so
    // release them straight from it, pairs ascending like read_claims.
    cloud->topology.for_each_pair([&](NodeId u, NodeId v) {
        bool existed = g.remove_color_claim(u, v, color);
        XHEAL_ASSERT(existed);
        if (claims_removed != nullptr) ++*claims_removed;
    });
    for (NodeId v : cloud->topology.members()) unregister_membership(v, *cloud);
    release_cloud(color);
}

NodeId CloudRegistry::remove_member(Graph& g, ColorId color, NodeId v, util::Rng& rng,
                                    bool deleted_from_graph, std::size_t* claims_added,
                                    std::size_t* claims_removed) {
    Cloud* cloud = find(color);
    XHEAL_EXPECTS(cloud != nullptr);
    XHEAL_EXPECTS(cloud->has_member(v));

    // Purge claims that touch v. If the adversary already deleted v its
    // edges, and with them these claims, are gone; otherwise release the
    // claims on v's row, lowest neighbor first.
    if (!deleted_from_graph) {
        claims_.clear();
        for (const auto& [w, claims] : g.row(v)) {
            if (claims.has_color(color)) claims_.push_back({std::min(v, w), std::max(v, w)});
        }
        release_claims(g, color, claims_removed);
    }
    unregister_membership(v, *cloud);
    if (deleted_from_graph) retire_membership_row(v);
    cloud->erase_bridge_assoc(v);

    if (cloud->size() <= 2) {
        // Dissolve: fewer than 2 members remain after v leaves. A 2-member
        // cloud's one claim is (v, survivor), released by the purge above.
        NodeId survivor = graph::invalid_node;
        for (NodeId m : cloud->topology.members()) {
            if (m != v) survivor = m;
        }
        if (survivor != graph::invalid_node) unregister_membership(survivor, *cloud);
        release_cloud(color);
        return survivor;
    }

    delta_.clear();
    cloud->topology.remove(v, rng, &delta_);
    bool resync = delta_.full_resync;
    if (rebuild_on_half_loss_ && cloud->topology.needs_rebuild()) {
        cloud->topology.rebuild(rng);
        ++cloud->rebuild_count;
        resync = true;
    }
    if (resync) {
        sync_claims(g, *cloud, claims_added, claims_removed);
    } else {
        apply_splice(g, *cloud, claims_added, claims_removed);
    }
    if (cloud->leader == v || cloud->vice_leader == v) fix_leadership(*cloud, rng);
    return graph::invalid_node;
}

void CloudRegistry::insert_member(Graph& g, ColorId color, NodeId v, util::Rng& rng,
                                  std::size_t* claims_added, std::size_t* claims_removed) {
    Cloud* cloud = find(color);
    XHEAL_EXPECTS(cloud != nullptr);
    XHEAL_EXPECTS(g.has_node(v));
    XHEAL_EXPECTS(!cloud->has_member(v));
    if (cloud->kind == CloudKind::secondary) XHEAL_EXPECTS(is_free(v));
    delta_.clear();
    cloud->topology.insert(v, rng, &delta_);
    register_membership(v, *cloud);
    if (delta_.full_resync) {
        sync_claims(g, *cloud, claims_added, claims_removed);
    } else {
        apply_splice(g, *cloud, claims_added, claims_removed);
    }
}

void CloudRegistry::primary_clouds_of(NodeId v, std::vector<ColorId>& out) const {
    out.clear();
    if (v < memberships_.size()) out.assign(memberships_[v].begin(), memberships_[v].end());
}

void CloudRegistry::free_members_of(ColorId color, std::vector<NodeId>& out) const {
    const Cloud* cloud = find(color);
    XHEAL_EXPECTS(cloud != nullptr);
    out.clear();
    for (NodeId v : cloud->topology.members()) {
        if (is_free(v)) out.push_back(v);
    }  // members() is sorted, so out is ascending
}

std::vector<ColorId> CloudRegistry::colors() const {
    std::vector<ColorId> out;
    out.reserve(live_clouds_);
    for (std::size_t slot = head_; slot < directory_.size(); ++slot)
        if (directory_[slot] != nullptr) out.push_back(directory_[slot]->color);
    return out;
}

bool CloudRegistry::in_any_cloud(NodeId v) const {
    return !is_free(v) || (v < memberships_.size() && !memberships_[v].empty());
}

void CloudRegistry::read_claims(const Graph& g, const Cloud& cloud) {
    claims_.clear();
    for (NodeId u : cloud.topology.members()) {
        if (!g.has_node(u)) continue;  // a deleted member's claims left with it
        for (const auto& [w, claims] : g.row(u)) {
            if (w > u && claims.has_color(cloud.color)) claims_.push_back({u, w});
        }
    }
}

void CloudRegistry::release_claims(Graph& g, ColorId color, std::size_t* removed) {
    for (const auto& [u, v] : claims_) {
        g.remove_color_claim(u, v, color);
        if (removed != nullptr) ++*removed;
    }
}

void CloudRegistry::sync_claims(Graph& g, Cloud& cloud, std::size_t* added,
                                std::size_t* removed) {
    read_claims(g, cloud);
    cloud.topology.collect_edges(desired_);  // sorted ascending, into scratch

    for (const auto& pair : claims_) {
        if (!std::binary_search(desired_.begin(), desired_.end(), pair)) {
            g.remove_color_claim(pair.first, pair.second, cloud.color);
            if (removed != nullptr) ++*removed;
        }
    }
    for (const auto& pair : desired_) {
        if (!std::binary_search(claims_.begin(), claims_.end(), pair)) {
            g.add_color_claim(pair.first, pair.second, cloud.color);
            if (added != nullptr) ++*added;
        }
    }
}

void CloudRegistry::apply_splice(Graph& g, Cloud& cloud, std::size_t* added,
                                 std::size_t* removed) {
    // A removed candidate only loses its claim if no other cycle still
    // realizes the pair; candidates touching an already-purged member find
    // no claim left to remove.
    for (const auto& [a, b] : delta_.splice.removed) {
        if (cloud.topology.has_edge(a, b)) continue;
        if (!g.remove_color_claim(a, b, cloud.color)) continue;
        if (removed != nullptr) ++*removed;
    }
    for (const auto& [a, b] : delta_.splice.added) {
        if (g.has_color_claim(a, b, cloud.color)) continue;
        g.add_color_claim(a, b, cloud.color);
        if (added != nullptr) ++*added;
    }
}

void CloudRegistry::fix_leadership(Cloud& cloud, util::Rng& rng) {
    const std::vector<NodeId>& members = cloud.topology.members();
    XHEAL_ASSERT(!members.empty());
    bool leader_alive = cloud.leader != graph::invalid_node &&
                        cloud.has_member(cloud.leader);
    if (!leader_alive) {
        // If the vice-leader survived it takes over (paper invariant d);
        // otherwise elect a fresh random leader.
        if (cloud.vice_leader != graph::invalid_node && cloud.has_member(cloud.vice_leader)) {
            cloud.leader = cloud.vice_leader;
            cloud.vice_leader = graph::invalid_node;
        } else {
            cloud.leader = members[rng.index(members.size())];
        }
    }
    bool vice_ok = cloud.vice_leader != graph::invalid_node &&
                   cloud.has_member(cloud.vice_leader) && cloud.vice_leader != cloud.leader;
    if (!vice_ok) {
        cloud.vice_leader = graph::invalid_node;
        if (members.size() >= 2) {
            do {
                cloud.vice_leader = members[rng.index(members.size())];
            } while (cloud.vice_leader == cloud.leader);
        }
    }
}

void CloudRegistry::register_membership(NodeId v, const Cloud& cloud) {
    if (memberships_.size() <= v) {
        memberships_.resize(v + 1);
        secondary_of_.resize(v + 1, graph::invalid_color);
    }
    if (cloud.kind == CloudKind::secondary) {
        XHEAL_ASSERT(secondary_of_[v] == graph::invalid_color);
        secondary_of_[v] = cloud.color;
        return;
    }
    std::vector<ColorId>& row = memberships_[v];
    if (row.capacity() == 0 && !membership_pool_.empty()) {
        row = std::move(membership_pool_.back());
        membership_pool_.pop_back();
        row.clear();
    }
    util::sorted_insert(row, cloud.color);
}

void CloudRegistry::unregister_membership(NodeId v, const Cloud& cloud) {
    if (v >= memberships_.size()) return;
    if (cloud.kind == CloudKind::secondary) {
        XHEAL_ASSERT(secondary_of_[v] == cloud.color);
        secondary_of_[v] = graph::invalid_color;
        return;
    }
    util::sorted_erase(memberships_[v], cloud.color);
}

void CloudRegistry::retire_membership_row(NodeId v) {
    if (v >= memberships_.size()) return;
    std::vector<ColorId>& row = memberships_[v];
    if (row.empty() && row.capacity() != 0 &&
        membership_pool_.size() < membership_pool_cap) {
        // One-time full reserve: the pool's own growth must not allocate
        // mid-run either (the steady-state soaks pin repair at zero).
        if (membership_pool_.capacity() == 0)
            membership_pool_.reserve(membership_pool_cap);
        membership_pool_.push_back(std::move(row));
    }
}

void CloudRegistry::remap_ids(const std::vector<NodeId>& old_to_new,
                              std::size_t live_count) {
    // Live clouds carry renumbered-graph ids everywhere: topology, bridge
    // associations, leadership (their claims live in g, which renumbers
    // itself). Pooled clouds are skipped — create_cloud fully
    // re-initializes them on revival.
    for (std::size_t slot = head_; slot < directory_.size(); ++slot)
        if (directory_[slot] != nullptr) directory_[slot]->remap_ids(old_to_new);

    // Slide membership rows and secondary slots down to their new ids. The
    // map is ascending (new <= old), so a forward pass never overwrites a
    // row that hasn't moved yet. Dead ids must carry no memberships (their
    // rows and slots were emptied when they left their last cloud); their
    // row storage is retired into the pool just like retire_membership_row
    // does, so the next epoch's fresh ids register without allocating.
    std::size_t upper = std::min(memberships_.size(), old_to_new.size());
    for (NodeId v = 0; v < upper; ++v) {
        std::vector<ColorId>& row = memberships_[v];
        NodeId to = old_to_new[v];
        if (to == graph::invalid_node) {
            XHEAL_ASSERT(row.empty() && secondary_of_[v] == graph::invalid_color);
            if (row.capacity() != 0 && membership_pool_.size() < membership_pool_cap) {
                if (membership_pool_.capacity() == 0)
                    membership_pool_.reserve(membership_pool_cap);
                membership_pool_.push_back(std::move(row));
            }
            std::vector<ColorId>().swap(row);
            continue;
        }
        if (to != v) {
            row.swap(memberships_[to]);
            secondary_of_[to] = std::exchange(secondary_of_[v], graph::invalid_color);
        }
    }
    // Rows past the map (ids that never joined a cloud) don't exist, and the
    // tail beyond the live range holds only moved-from/empty rows.
    for (NodeId v = static_cast<NodeId>(std::min<std::size_t>(live_count, upper));
         v < upper; ++v) {
        XHEAL_ASSERT(memberships_[v].empty() && secondary_of_[v] == graph::invalid_color);
    }
    if (memberships_.size() > live_count) {
        memberships_.resize(live_count);
        secondary_of_.resize(live_count);
    }
}

CloudRegistry::Tally CloudRegistry::verify_cloud(const Graph& g, const Cloud& cloud,
                                                 std::vector<ColorId>& stamp,
                                                 const std::vector<std::uint8_t>& in_scope) const {
    const ColorId color = cloud.color;
    XHEAL_ASSERT(cloud.size() >= 2);
    Tally tally;
    // Membership tests below read a flat per-node stamp (the color of the
    // cloud being checked) instead of searching the member list; callers
    // check clouds in ascending color order, so a stale stamp never matches.
    auto member = [&](NodeId v) { return v < stamp.size() && stamp[v] == color; };
    const std::vector<NodeId>& members = cloud.topology.members();
    for (std::size_t i = 0; i < members.size(); ++i) {
        NodeId v = members[i];
        XHEAL_ASSERT(i == 0 || members[i - 1] < v);
        XHEAL_ASSERT(g.has_node(v));
        XHEAL_ASSERT(v < memberships_.size());
        if (cloud.kind == CloudKind::secondary) {
            XHEAL_ASSERT(secondary_of_[v] == color);
        } else {
            XHEAL_ASSERT(std::binary_search(memberships_[v].begin(),
                                            memberships_[v].end(), color));
        }
        stamp[v] = color;
        tally.records += in_scope[v];
    }
    // Every projection pair joins two members and is claimed in g. Pairs
    // ascend, so each run of one u walks row(u) forward once (a
    // has_color_claim search per pair costs forensics ~5% wall).
    NodeId row_of = graph::invalid_node;
    std::span<const graph::NeighborEntry> row;
    std::size_t at = 0;
    cloud.topology.for_each_pair([&](NodeId u, NodeId v) {
        XHEAL_ASSERT(member(u) && member(v));
        if (u != row_of) {
            row = g.row(u);
            at = 0;
            row_of = u;
        }
        while (at < row.size() && row[at].first < v) ++at;
        XHEAL_ASSERT(at < row.size() && row[at].first == v &&
                     row[at].second.has_color(color));
        tally.claim_ends += in_scope[u] + in_scope[v];
    });
    // Leadership invariant (size >= 2 is asserted above).
    XHEAL_ASSERT(cloud.leader != graph::invalid_node);
    XHEAL_ASSERT(member(cloud.leader));
    XHEAL_ASSERT(cloud.vice_leader != graph::invalid_node);
    XHEAL_ASSERT(member(cloud.vice_leader));
    XHEAL_ASSERT(cloud.vice_leader != cloud.leader);
    if (cloud.kind == CloudKind::secondary) {
        for (const auto& [v, assoc] : cloud.bridge_assoc) {
            XHEAL_ASSERT(member(v));
            if (assoc != graph::invalid_color) {
                const Cloud* prim = find(assoc);
                // The associated primary may have been dissolved since;
                // if alive it must be primary and contain the bridge.
                if (prim != nullptr) {
                    XHEAL_ASSERT(prim->kind == CloudKind::primary);
                    XHEAL_ASSERT(prim->has_member(v));
                }
            }
        }
    }
    return tally;
}

void CloudRegistry::verify(const Graph& g) const {
    // The full sweep is the scoped one with every id in scope.
    std::vector<NodeId> every(std::max<std::size_t>(memberships_.size(), g.next_id()));
    std::iota(every.begin(), every.end(), NodeId{0});
    verify(g, every);
}

void CloudRegistry::verify(const Graph& g, std::span<const NodeId> rows) const {
    // Every membership record of a row in the scope S names a cloud; those
    // clouds are the reached set, each must be live, and each passes
    // verify_cloud, which proves two forward inclusions for all its members
    // and pairs:
    //   cloud -> membership: each (color, member) pair is registered: a
    //     primary color in memberships_[member] (one tiny binary search), a
    //     secondary color in secondary_of_[member];
    //   cloud -> graph: each (color, u, v) of the cloud's topology
    //     projection is a color claim on (u, v) in g (a forward walk of
    //     row(u) per run of u).
    // The reverse inclusions follow by counting instead of lookups, each
    // side counted only at its ends in S. Colors ascend strictly across the
    // reached clouds, and members and projection pairs within one, so the
    // cloud side of each inclusion is duplicate-free; a duplicate-free set
    // included in another set of equal size is that set:
    //   * memberships: every row ascends strictly and a slot holds one
    //     color, so S's rows and occupied slots hold distinct (color, v)
    //     pairs. If their number equals the reached clouds' members in S,
    //     no row or slot in S names a cloud lacking v.
    //   * graph claims: a ColorSet is duplicate-free, so S's live rows
    //     carry distinct (color, v, w) claim ends. If their number equals
    //     the reached projections' pair ends in S, every claim at S is one
    //     of theirs: none names a dead color, an unreached cloud or a pair
    //     outside its cloud's projection.
    XHEAL_ASSERT(secondary_of_.size() == memberships_.size());
    std::vector<std::uint8_t> in_scope(memberships_.size(), 0);
    std::size_t covered = 0;  // ids of S that have a membership row
    // A reached color must be live, so it has a directory slot; one flat
    // mark per slot dedupes the repeats, and the slots ascend with color.
    std::vector<std::uint8_t> marked(directory_.size(), 0);
    auto reach = [&](ColorId color) {
        XHEAL_ASSERT(find(color) != nullptr);
        marked[color - base_] = 1;
    };
    std::size_t records = 0;
    std::size_t claim_ends = 0;
    for (NodeId v : rows) {
        if (v < memberships_.size()) {
            in_scope[v] = 1;
            ++covered;
            const std::vector<ColorId>& row = memberships_[v];
            for (std::size_t i = 0; i < row.size(); ++i) {
                XHEAL_ASSERT(i == 0 || row[i - 1] < row[i]);
                reach(row[i]);
            }
            records += row.size();
            if (secondary_of_[v] != graph::invalid_color) {
                reach(secondary_of_[v]);
                ++records;
            }
        }
        if (!g.has_node(v)) continue;
        for (const auto& [w, claims] : g.row(v)) claim_ends += claims.colors.size();
    }
    // One pass over the directory: its own bookkeeping (the window head,
    // null slots below it, each live slot's color, the live count) and the
    // reached clouds in ascending color order.
    XHEAL_ASSERT(head_ <= directory_.size());
    XHEAL_ASSERT(head_ == directory_.size() || directory_[head_] != nullptr);
    std::vector<ColorId> stamp(memberships_.size(), graph::invalid_color);
    Tally clouds;
    std::size_t live = 0;
    std::size_t reached = 0;
    for (std::size_t slot = 0; slot < directory_.size(); ++slot) {
        const Cloud* cloud = directory_[slot];
        if (slot < head_) XHEAL_ASSERT(cloud == nullptr);
        if (cloud == nullptr) continue;
        ++live;
        XHEAL_ASSERT(cloud->color == base_ + static_cast<ColorId>(slot));
        if (marked[slot] == 0) continue;
        ++reached;
        Tally t = verify_cloud(g, *cloud, stamp, in_scope);
        clouds.records += t.records;
        clouds.claim_ends += t.claim_ends;
    }
    XHEAL_ASSERT(live == live_clouds_);
    // With every membership row in scope, each live cloud's members are in
    // S, so a cloud left unreached has no membership record at all.
    if (covered == memberships_.size()) XHEAL_ASSERT(reached == live);
    XHEAL_ASSERT(records == clouds.records);
    XHEAL_ASSERT(claim_ends == clouds.claim_ends);
}

}  // namespace xheal::core
