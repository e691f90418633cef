#include "core/xheal_healer.hpp"

#include <algorithm>

#include "util/expects.hpp"
#include "util/sorted_vec.hpp"

namespace xheal::core {

using graph::ColorId;
using graph::Graph;
using graph::NodeId;

XhealHealer::XhealHealer(XhealConfig config)
    : config_(config),
      registry_(config.d, config.rebuild_on_half_loss),
      rng_(config.seed) {}

void XhealHealer::check_consistency(const Graph& g) const { registry_.verify(g); }

void XhealHealer::check_consistency(const Graph& g, std::span<const NodeId> rows) const {
    registry_.verify(g, rows);
}

void XhealHealer::on_compact(Graph& g, const std::vector<NodeId>& old_to_new) {
    // Compaction only fires on a fully healed graph: a batch in flight would
    // park old-numbering singleton units that the flush could not resolve.
    XHEAL_EXPECTS(pending_units_.empty());
    // The event log describes pre-compaction repairs in the old numbering;
    // retire it rather than remap it (consumers read it per-repair).
    recycle_events();
    registry_.remap_ids(old_to_new, g.node_count());
    // Deliberately no rng_ draw: replay reproduces repairs by consuming the
    // identical draw sequence, and compaction is a pure renumbering.
}

RepairReport XhealHealer::on_delete(Graph& g, NodeId v) {
    // The unbatched step is a batch of one: stage, then flush at once. The
    // event log is recycled only here, before the stage, so last_events()
    // holds both halves of the repair.
    RepairReport report;
    recycle_events();
    repair(g, v, report);
    flush_pending(g, report);
    return report;
}

RepairReport XhealHealer::on_delete_staged(Graph& g, NodeId v) {
    RepairReport report;
    recycle_events();
    repair(g, v, report);
    return report;
}

RepairReport XhealHealer::flush_staged(Graph& g) {
    RepairReport report;
    recycle_events();
    flush_pending(g, report);
    return report;
}

void XhealHealer::flush_pending(Graph& g, RepairReport& report) {
    if (pending_units_.empty()) return;
    // Units parked earlier in the batch may reference nodes a later victim
    // took down (the victim itself, or a dissolved 2-cloud's survivor).
    std::erase_if(pending_units_, [&](const Unit& u) {
        return !u.is_cloud() && !g.has_node(u.singleton);
    });
    dedupe_units_inplace(pending_units_);
    connect_units(g, pending_units_, graph::invalid_color, report);
    pending_units_.clear();
}

void XhealHealer::repair(Graph& g, NodeId v, RepairReport& report) {
    XHEAL_EXPECTS(g.has_node(v));

    // ---- snapshot v's situation before anything is torn down ----
    registry_.primary_clouds_of(v, prim_);
    std::optional<ColorId> sec = registry_.secondary_cloud_of(v);
    ColorId assoc_of_v = graph::invalid_color;
    if (sec.has_value()) assoc_of_v = registry_.find(*sec)->bridge_assoc_of(v);
    black_nbrs_.clear();
    for (const auto& [u, claims] : g.row(v)) {
        if (!claims.colored()) black_nbrs_.push_back(u);
    }

    // ---- the adversary's deletion takes effect ----
    g.remove_node(v);

    // ---- Case 1: v belonged to no cloud (all deleted edges black) ----
    if (prim_.empty() && !sec.has_value()) {
        if (black_nbrs_.size() >= 2) {
            ColorId c = registry_.create_cloud(g, CloudKind::primary, black_nbrs_, rng_,
                                               &report.edges_added);
            ++report.clouds_touched;
            HealEvent& ev = push_event(HealEvent::Kind::create_primary, c);
            ev.members.assign(black_nbrs_.begin(), black_nbrs_.end());
        }
        return;
    }

    // ---- FixPrimary: every affected primary cloud repairs its expander ----
    survivors_.clear();  // lone remnants of dissolved 2-clouds
    for (ColorId c : prim_) {
        NodeId survivor = remove_member_logged(g, c, v, report);
        if (survivor != graph::invalid_node) survivors_.push_back(survivor);
    }

    // ---- Remove v from its secondary cloud (if any) ----
    NodeId f_survivor = graph::invalid_node;
    bool f_alive = false;
    if (sec.has_value()) {
        f_survivor = remove_member_logged(g, *sec, v, report);
        f_alive = registry_.exists(*sec);
    }

    // ---- Case 2.2: repair the secondary cloud's bridge structure ----
    secfix_.clear();
    if (sec.has_value() && f_alive) {
        fix_secondary(g, *sec, assoc_of_v, report, secfix_);
    }

    // ---- assemble the units the new secondary must connect ----
    units_.clear();
    for (ColorId c : prim_) {
        if (!registry_.exists(c)) continue;  // dissolved or combined away
        if (util::sorted_contains(secfix_.connected, c)) continue;  // through F
        units_.push_back(Unit::of_cloud(c));
    }
    for (NodeId s : survivors_) {
        if (g.has_node(s)) units_.push_back(Unit::of_node(s));
    }
    for (NodeId b : black_nbrs_) units_.push_back(Unit::of_node(b));
    if (f_survivor != graph::invalid_node && g.has_node(f_survivor)) {
        // F dissolved when v left: its last bridge is now free and its side
        // must be reconnected like any other unit.
        units_.push_back(Unit::of_node(f_survivor));
    }

    dedupe_units_inplace(units_);
    if (units_.empty()) return;

    if (secfix_.representative.has_value()) {
        units_.push_back(*secfix_.representative);
        dedupe_units_inplace(units_);
    } else if (secfix_.insert_into != graph::invalid_color &&
               registry_.exists(secfix_.insert_into)) {
        // Growing an existing secondary is a local splice — done now; only
        // fresh-secondary construction waits for the flush.
        connect_units(g, units_, secfix_.insert_into, report);
        return;
    }
    pending_units_.insert(pending_units_.end(), units_.begin(), units_.end());
}

void XhealHealer::fix_secondary(Graph& g, ColorId f_color, ColorId assoc_of_v,
                                RepairReport& report, SecondaryFix& fix) {
    Cloud* f = registry_.find(f_color);
    XHEAL_ASSERT(f != nullptr);

    if (assoc_of_v != graph::invalid_color && registry_.exists(assoc_of_v)) {
        // v bridged for primary cloud Ci: find a replacement free node z.
        live_assocs_of(*f, donors_);
        donors_.erase(std::remove(donors_.begin(), donors_.end(), assoc_of_v),
                      donors_.end());
        NodeId z = pick_free_node(g, assoc_of_v, donors_, report);
        if (z != graph::invalid_node) {
            insert_member_logged(g, f_color, z, report);
            registry_.find(f_color)->set_bridge_assoc(z, assoc_of_v);
        } else {
            // No free node anywhere among F's primary clouds: combine them
            // all into one primary cloud; F's edges are deleted and its
            // bridges become free again (paper Case 2.2 / Case 2.1 rule).
            fix_to_combine_.clear();
            live_assocs_of(*f, assocs_);
            for (ColorId c : assocs_) fix_to_combine_.push_back(Unit::of_cloud(c));
            for (const auto& [bridge, assoc] : f->bridge_assoc) {
                if (assoc == graph::invalid_color || !registry_.exists(assoc)) {
                    fix_to_combine_.push_back(Unit::of_node(bridge));
                }
            }
            registry_.destroy_cloud(g, f_color, &report.edges_removed);
            ++report.clouds_touched;
            dedupe_units_inplace(fix_to_combine_);
            ColorId combined = combine_units(g, fix_to_combine_, report);
            fix.representative = Unit::of_cloud(combined);
            return;  // F is gone; `connected` stays empty
        }
    }
    // F survives (possibly just shrunk if v had no live association).
    Cloud* f_now = registry_.find(f_color);
    XHEAL_ASSERT(f_now != nullptr);
    live_assocs_of(*f_now, assocs_);
    fix.connected.assign(assocs_.begin(), assocs_.end());

    // Choose a representative unit on F's side for reconnecting leftover
    // clouds: prefer v's own primary, else any live primary of F.
    ColorId rep = graph::invalid_color;
    if (assoc_of_v != graph::invalid_color && registry_.exists(assoc_of_v)) {
        rep = assoc_of_v;
    } else if (!assocs_.empty()) {
        rep = assocs_.front();
    }
    if (rep != graph::invalid_color) {
        fix.representative = Unit::of_cloud(rep);
    } else {
        fix.insert_into = f_color;  // fall back to growing F directly
    }
}

NodeId XhealHealer::pick_free_node(Graph& g, ColorId ci,
                                   const std::vector<ColorId>& donor_clouds,
                                   RepairReport& report) {
    registry_.free_members_of(ci, free_scratch_);
    if (!free_scratch_.empty()) return rng_.pick(free_scratch_);
    // Sharing: borrow a free node from a donor cloud and physically add it
    // to ci so it can serve as ci's bridge (paper Section 3).
    for (ColorId donor : donor_clouds) {
        if (!registry_.exists(donor)) continue;
        registry_.free_members_of(donor, free_scratch_);
        // The borrowed node must not already sit inside ci.
        std::erase_if(free_scratch_, [&](NodeId w) {
            return registry_.find(ci)->has_member(w);
        });
        if (free_scratch_.empty()) continue;
        NodeId w = rng_.pick(free_scratch_);
        insert_member_logged(g, ci, w, report);
        return w;
    }
    return graph::invalid_node;
}

void XhealHealer::dedupe_units_inplace(std::vector<Unit>& units) {
    units_tmp_.assign(units.begin(), units.end());
    units.clear();
    seen_clouds_.clear();
    seen_nodes_.clear();
    // First pass: cloud units.
    for (const Unit& u : units_tmp_) {
        if (!u.is_cloud()) continue;
        if (!registry_.exists(u.cloud)) continue;
        if (util::sorted_insert(seen_clouds_, u.cloud)) units.push_back(u);
    }
    // Second pass: singletons not already covered by a listed cloud.
    for (const Unit& u : units_tmp_) {
        if (u.is_cloud()) continue;
        if (!util::sorted_insert(seen_nodes_, u.singleton)) continue;
        bool covered = false;
        for (ColorId c : seen_clouds_) {
            const Cloud* cloud = registry_.find(c);
            if (cloud != nullptr && cloud->has_member(u.singleton)) {
                covered = true;
                break;
            }
        }
        if (!covered) units.push_back(u);
    }
}

void XhealHealer::connect_units(Graph& g, const std::vector<Unit>& units,
                                ColorId into_secondary, RepairReport& report) {
    if (units.empty()) return;
    if (units.size() == 1 && into_secondary == graph::invalid_color) return;

    // Candidate free nodes per unit. (Flat sorted vectors below stand in for
    // the std::sets of the original implementation; iteration order — hence
    // the rng draw sequence — is identical.)
    if (cu_candidates_.size() < units.size()) cu_candidates_.resize(units.size());
    all_free_.clear();
    for (std::size_t i = 0; i < units.size(); ++i) {
        std::vector<NodeId>& cand = cu_candidates_[i];
        if (units[i].is_cloud()) {
            registry_.free_members_of(units[i].cloud, cand);
        } else {
            cand.clear();
            if (registry_.is_free(units[i].singleton)) cand.push_back(units[i].singleton);
        }
        for (NodeId w : cand) util::sorted_insert(all_free_, w);
    }

    // The paper's combine rule: fewer distinct free nodes than units means
    // a secondary cloud cannot be built — merge everything into one
    // primary cloud instead.
    if (all_free_.size() < units.size()) {
        ColorId combined = combine_units(g, units, report);
        if (combined != graph::invalid_color && into_secondary != graph::invalid_color &&
            registry_.exists(into_secondary)) {
            // We were asked to hang the units off an existing secondary;
            // attach the combined cloud if it still has a free node.
            // (Connectivity fallback; see DESIGN.md decision 3.)
            registry_.free_members_of(combined, free_scratch_);
            if (!free_scratch_.empty()) {
                NodeId w = rng_.pick(free_scratch_);
                insert_member_logged(g, into_secondary, w, report);
                registry_.find(into_secondary)->set_bridge_assoc(w, combined);
            }
        }
        return;
    }

    // Assign one distinct free node per unit: greedy by scarcity, sharing
    // spares into deficient units. Count guarantees success.
    order_.resize(units.size());
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    std::sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
        if (cu_candidates_[a].size() != cu_candidates_[b].size())
            return cu_candidates_[a].size() < cu_candidates_[b].size();
        return a < b;
    });

    taken_.clear();
    assigned_.assign(units.size(), graph::invalid_node);
    deficient_.clear();
    for (std::size_t i : order_) {
        open_.clear();
        for (NodeId w : cu_candidates_[i]) {
            if (!util::sorted_contains(taken_, w)) open_.push_back(w);
        }
        if (open_.empty()) {
            deficient_.push_back(i);
            continue;
        }
        NodeId w = rng_.pick(open_);
        assigned_[i] = w;
        util::sorted_insert(taken_, w);
    }
    for (std::size_t i : deficient_) {
        spares_.clear();
        for (NodeId w : all_free_) {
            if (!util::sorted_contains(taken_, w)) spares_.push_back(w);
        }
        XHEAL_ASSERT(!spares_.empty());  // |all_free| >= units guarantees this
        NodeId w = rng_.pick(spares_);
        assigned_[i] = w;
        util::sorted_insert(taken_, w);
    }

    // Materialize bridges: shared nodes physically join the deficient unit.
    bridges_.clear();
    for (std::size_t i = 0; i < units.size(); ++i) {
        NodeId w = assigned_[i];
        XHEAL_ASSERT(w != graph::invalid_node);
        if (units[i].is_cloud()) {
            Cloud* cloud = registry_.find(units[i].cloud);
            XHEAL_ASSERT(cloud != nullptr);
            if (!cloud->has_member(w)) {
                insert_member_logged(g, units[i].cloud, w, report);
            }
            bridges_.push_back({w, units[i].cloud});
        } else if (w == units[i].singleton) {
            bridges_.push_back({w, graph::invalid_color});
        } else {
            // Share into a singleton: wrap it in a fresh 2-node primary
            // cloud with the borrowed free node as its bridge.
            pair_members_.clear();
            pair_members_.push_back(units[i].singleton);
            pair_members_.push_back(w);
            ColorId p = registry_.create_cloud(g, CloudKind::primary, pair_members_, rng_,
                                               &report.edges_added);
            ++report.clouds_touched;
            HealEvent& ev = push_event(HealEvent::Kind::create_primary, p);
            ev.members.assign(pair_members_.begin(), pair_members_.end());
            bridges_.push_back({w, p});
        }
    }

    if (into_secondary != graph::invalid_color && registry_.exists(into_secondary)) {
        for (const auto& [node, assoc] : bridges_) {
            insert_member_logged(g, into_secondary, node, report);
            registry_.find(into_secondary)->set_bridge_assoc(node, assoc);
        }
        return;
    }

    if (bridges_.size() < 2) return;  // single unit: nothing to connect
    bridge_nodes_.clear();
    for (const auto& [node, assoc] : bridges_) bridge_nodes_.push_back(node);
    ColorId fcol = registry_.create_cloud(g, CloudKind::secondary, bridge_nodes_, rng_,
                                          &report.edges_added);
    Cloud* cloud = registry_.find(fcol);
    for (const auto& [node, assoc] : bridges_) cloud->set_bridge_assoc(node, assoc);
    ++report.clouds_touched;
    HealEvent& ev = push_event(HealEvent::Kind::create_secondary, fcol);
    ev.members.assign(bridge_nodes_.begin(), bridge_nodes_.end());
}

ColorId XhealHealer::combine_units(Graph& g, const std::vector<Unit>& units,
                                   RepairReport& report) {
    comb_members_.clear();
    comb_destroyed_.clear();
    for (const Unit& u : units) {
        if (u.is_cloud()) {
            const Cloud* cloud = registry_.find(u.cloud);
            if (cloud == nullptr) continue;
            const std::vector<NodeId>& members = cloud->topology.members();
            comb_members_.insert(comb_members_.end(), members.begin(), members.end());
        } else {
            comb_members_.push_back(u.singleton);
        }
    }
    std::sort(comb_members_.begin(), comb_members_.end());
    comb_members_.erase(std::unique(comb_members_.begin(), comb_members_.end()),
                        comb_members_.end());
    for (const Unit& u : units) {
        if (u.is_cloud() && registry_.exists(u.cloud)) {
            util::sorted_insert(comb_destroyed_, u.cloud);
            registry_.destroy_cloud(g, u.cloud, &report.edges_removed);
            ++report.clouds_touched;
        }
    }
    if (comb_members_.size() < 2) {
        // A lone non-free singleton: nothing to merge. It is already held
        // by its own secondary cloud; no new cloud is needed.
        return graph::invalid_color;
    }
    ColorId combined = registry_.create_cloud(g, CloudKind::primary, comb_members_, rng_,
                                              &report.edges_added);
    ++report.clouds_touched;
    ++report.combines;
    report.combine_members += comb_members_.size();
    {
        HealEvent& ev = push_event(HealEvent::Kind::combine, combined);
        ev.members.assign(comb_members_.begin(), comb_members_.end());
    }

    // The paper's free-node replenishment: non-free nodes of the combined
    // clouds "become free again". A combined member bridging a *foreign*
    // secondary whose associated cloud just died now represents the merged
    // cloud D — one such bridge per foreign secondary suffices, the rest
    // are released (freed). Bridges for clouds that survive elsewhere keep
    // their roles. Without this, targeted bridge deletions starve the
    // system of free nodes and combines cascade (the Section 5(c)
    // amortization depends on it).
    //
    // One pass: pair every merged member with its secondary, sort, and
    // handle one foreign secondary per run of equal colors — the (f, m)
    // ascending order of a scan of every member per foreign f. Each member
    // has at most one secondary, and releasing bridges of f never changes
    // membership in another secondary, so the runs are exact.
    foreign_.clear();
    for (NodeId m : comb_members_) {
        if (auto sec = registry_.secondary_cloud_of(m)) foreign_.push_back({*sec, m});
    }
    std::sort(foreign_.begin(), foreign_.end());
    for (std::size_t run = 0, end = 0; run < foreign_.size(); run = end) {
        ColorId f_color = foreign_[run].first;
        Cloud* f = registry_.find(f_color);
        XHEAL_ASSERT(f != nullptr);
        stale_.clear();
        for (end = run; end < foreign_.size() && foreign_[end].first == f_color; ++end) {
            NodeId m = foreign_[end].second;
            XHEAL_ASSERT(f->has_member(m));
            ColorId assoc = f->bridge_assoc_of(m);
            bool assoc_alive = assoc != graph::invalid_color && registry_.exists(assoc) &&
                               !util::sorted_contains(comb_destroyed_, assoc);
            if (!assoc_alive) stale_.push_back(m);
        }
        if (stale_.empty()) continue;
        // Keep the first stale bridge as D's representative in f.
        f->set_bridge_assoc(stale_.front(), combined);
        for (std::size_t i = 1; i < stale_.size(); ++i) {
            if (f->size() <= 2) break;  // keep f alive; its members stay bridges
            registry_.remove_member(g, f_color, stale_[i], rng_,
                                    /*deleted_from_graph=*/false, &report.edges_added,
                                    &report.edges_removed);
            ++report.clouds_touched;
        }
    }
    return combined;
}

NodeId XhealHealer::remove_member_logged(Graph& g, ColorId c, NodeId v,
                                         RepairReport& report) {
    Cloud* cloud = registry_.find(c);
    XHEAL_ASSERT(cloud != nullptr);
    bool leader_deleted = cloud->leader == v;
    std::size_t rebuilds_before = cloud->rebuild_count;
    NodeId survivor = registry_.remove_member(g, c, v, rng_, /*deleted_from_graph=*/true,
                                              &report.edges_added, &report.edges_removed);
    ++report.clouds_touched;
    if (!registry_.exists(c)) {
        HealEvent& ev = push_event(HealEvent::Kind::dissolve_cloud, c);
        if (survivor != graph::invalid_node) ev.members.push_back(survivor);
        return survivor;
    }
    const Cloud* after = registry_.find(c);
    HealEvent& ev = push_event(HealEvent::Kind::fix_cloud, c);
    ev.leader_was_deleted = leader_deleted;
    ev.rebuilt = after->rebuild_count > rebuilds_before;
    if (ev.rebuilt) ++report.rebuilds;
    return survivor;
}

void XhealHealer::insert_member_logged(Graph& g, ColorId c, NodeId w,
                                       RepairReport& report) {
    registry_.insert_member(g, c, w, rng_, &report.edges_added, &report.edges_removed);
    ++report.clouds_touched;
    HealEvent& ev = push_event(HealEvent::Kind::insert_member, c);
    ev.members.push_back(w);
}

void XhealHealer::live_assocs_of(const Cloud& f, std::vector<ColorId>& out) const {
    out.clear();
    for (const auto& [bridge, assoc] : f.bridge_assoc) {
        (void)bridge;
        if (assoc != graph::invalid_color && registry_.exists(assoc)) out.push_back(assoc);
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
}

HealEvent& XhealHealer::push_event(HealEvent::Kind kind, ColorId color) {
    HealEvent ev;
    ev.kind = kind;
    ev.color = color;
    ev.members = take_members();
    events_.push_back(std::move(ev));
    return events_.back();
}

void XhealHealer::recycle_events() {
    for (HealEvent& ev : events_) {
        ev.members.clear();
        member_pool_.push_back(std::move(ev.members));
    }
    events_.clear();
}

std::vector<NodeId> XhealHealer::take_members() {
    if (member_pool_.empty()) return {};
    std::vector<NodeId> out = std::move(member_pool_.back());
    member_pool_.pop_back();
    return out;
}

}  // namespace xheal::core
