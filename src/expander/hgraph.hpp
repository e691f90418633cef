// Law-Siu H-graphs (INFOCOM 2003): 2d-regular multigraphs formed by the
// union of d independent uniformly random Hamilton cycles. Xheal uses them
// as its distributed expander construction (paper Section 5, Theorems 3-4):
//
//   INSERT(u): splice u into each cycle at an independently random position;
//   DELETE(u): splice u out of each cycle, joining its predecessor and
//              successor.
//
// Both operations preserve the uniform H-graph distribution (Theorem 3), and
// a uniform H-graph is an expander with edge expansion Omega(d) w.h.p.
// (Theorem 4).
//
// Storage is slot-based so the repair hot path stays allocation-free: each
// member occupies a small dense slot, cycles are flat succ/pred arrays
// indexed by slot, and the id <-> slot map is a sorted vector. Removal frees
// the slot onto a free list and insertion reuses it, so steady-state churn
// (and even the in-place rebuild()) never allocates once the cloud has seen
// its peak size. The splice operations can report the simple-graph pairs
// they touched (SpliceDelta) so the claim layer can update incrementally
// instead of re-projecting the whole cloud per event.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/types.hpp"
#include "util/rng.hpp"

namespace xheal::expander {

class HGraph {
public:
    /// Candidate claim-level changes of one splice, appended by insert() /
    /// remove(). Candidates are not deduplicated and are only *candidates*:
    /// a removed pair may still be adjacent through another cycle and an
    /// added pair may already carry the claim — resolve against
    /// has_adjacency() and the cloud's claims in the graph. Self-pairs are
    /// never emitted.
    struct SpliceDelta {
        std::vector<std::pair<graph::NodeId, graph::NodeId>> removed;
        std::vector<std::pair<graph::NodeId, graph::NodeId>> added;

        void clear() {
            removed.clear();
            added.clear();
        }
    };

    /// Uniform random H-graph with `d` Hamilton cycles over `members`.
    /// Requires d >= 1 and members distinct. Sizes 1 and 2 are permitted
    /// (degenerate cycles) so callers can shrink without special cases.
    HGraph(std::vector<graph::NodeId> members, std::size_t d, util::Rng& rng);

    /// Re-initialize in place over a new member set, reusing every buffer:
    /// the pooled-cloud reconstruction path. Consumes exactly the rng draws
    /// the constructor would, so pooled and fresh clouds are bit-identical.
    void assign(const std::vector<graph::NodeId>& members, std::size_t d,
                util::Rng& rng);

    std::size_t size() const { return by_id_.size(); }
    std::size_t cycle_count() const { return succ_.size(); }
    /// Target degree of the projected graph: kappa = 2d.
    std::size_t kappa() const { return 2 * succ_.size(); }

    bool contains(graph::NodeId u) const { return slot_of(u) != npos; }
    std::vector<graph::NodeId> members_sorted() const;

    /// Law-Siu INSERT. Requires !contains(u) and size() >= 1.
    /// Appends the splice's claim candidates to *delta when given.
    void insert(graph::NodeId u, util::Rng& rng, SpliceDelta* delta = nullptr);

    /// Law-Siu DELETE. Requires contains(u) and size() >= 2.
    void remove(graph::NodeId u, SpliceDelta* delta = nullptr);

    /// Fresh uniform cycles over the current members, in place: the paper's
    /// half-loss reconstruction. Reuses all buffers; no allocation.
    void rebuild(util::Rng& rng);

    /// Id-compaction support: rewrite every member id through the ascending
    /// old->new map (every member must map to a valid id). Cycles are
    /// slot-indexed and untouched; only the id <-> slot directory is
    /// renumbered, and the sorted index stays sorted because the map is
    /// monotone. No rng draws, no allocation.
    void remap_ids(const std::vector<graph::NodeId>& old_to_new);

    graph::NodeId successor(graph::NodeId u, std::size_t cycle) const;
    graph::NodeId predecessor(graph::NodeId u, std::size_t cycle) const;

    /// True if some cycle has a and b adjacent, i.e. the simple-graph
    /// projection contains the edge. False when either id is not a member.
    bool has_adjacency(graph::NodeId a, graph::NodeId b) const;

    /// Simple-graph projection: distinct undirected pairs over all cycles,
    /// self-loops dropped, sorted ascending. This is the edge set a cloud
    /// claims in the network.
    std::vector<std::pair<graph::NodeId, graph::NodeId>> edges() const;

    /// Visit each projection pair once as f(u, v), u < v, in ascending
    /// (u, v) order: the order edges() lists. Per member, one pass over its
    /// 2d succ/pred entries gathers its distinct higher cycle neighbors
    /// into a sorted stack buffer; no allocation. A member with more such
    /// neighbors than the buffer holds (d > pair_buffer / 2) keeps the
    /// smallest and repeats the pass above the largest it emitted.
    template <typename F>
    void for_each_pair(F&& f) const {
        std::array<graph::NodeId, pair_buffer> buf{};
        for (const auto& [u, slot] : by_id_) {
            graph::NodeId last = u;  // excludes lower ids and self-loops
            for (;;) {
                std::size_t n = 0;
                auto offer = [&](graph::NodeId x) {
                    if (x <= last) return;
                    std::size_t at = n;
                    while (at > 0 && buf[at - 1] > x) --at;
                    if ((at > 0 && buf[at - 1] == x) || at == pair_buffer) return;
                    if (n < pair_buffer) ++n;  // else the largest drops off the end
                    for (std::size_t k = n - 1; k > at; --k) buf[k] = buf[k - 1];
                    buf[at] = x;
                };
                for (std::size_t c = 0; c < d_; ++c) {
                    offer(slot_ids_[succ_[c][slot]]);
                    offer(slot_ids_[pred_[c][slot]]);
                }
                for (std::size_t k = 0; k < n; ++k) f(u, buf[k]);
                if (n < pair_buffer) break;
                last = buf[pair_buffer - 1];
            }
        }
    }

    /// Structural self-check (each cycle is a single permutation cycle over
    /// all members, pred/succ mirror each other). Throws on violation.
    void validate() const;

private:
    static constexpr std::uint32_t npos = static_cast<std::uint32_t>(-1);
    /// for_each_pair's per-member neighbor buffer: one pass for d <= 8.
    static constexpr std::size_t pair_buffer = 16;

    /// Slot of id u, or npos.
    std::uint32_t slot_of(graph::NodeId u) const;

    /// Position of u in the sorted id index (insertion point when absent).
    std::size_t position_of(graph::NodeId u) const;

    /// Relink one cycle as a fresh uniform permutation over live slots.
    void shuffle_cycle(std::size_t cycle, util::Rng& rng);

    std::size_t d_;
    std::vector<graph::NodeId> slot_ids_;  // slot -> id (invalid_node = free)
    std::vector<std::uint32_t> free_slots_;
    /// (id, slot) sorted by id: the dense member directory. Uniform member
    /// draws index it directly, matching the sorted-members draw order the
    /// hash-based implementation used.
    std::vector<std::pair<graph::NodeId, std::uint32_t>> by_id_;
    std::vector<std::vector<std::uint32_t>> succ_;  // [cycle][slot]
    std::vector<std::vector<std::uint32_t>> pred_;
    std::vector<std::uint32_t> perm_;  // rebuild scratch
};

}  // namespace xheal::expander
