// Dynamic undirected simple graph with multi-claim colored edges.
//
// Xheal recolors an existing black (adversary) edge rather than creating a
// multi-edge, and expander clouds later drop their edges when rebuilt. To
// make both safe, each edge carries a *set of claims*:
//
//   - a black claim: the edge belongs to the original/inserted graph G', and
//   - zero or more color claims: one per expander cloud using the edge.
//
// The edge physically exists while at least one claim remains. Dropping a
// cloud's claim on an edge that is also black reverts it to a black edge
// instead of deleting it, so every G' edge between two surviving nodes is
// always present in the healed graph (DESIGN.md decision 1).
//
// Storage is a slot-indexed flat adjacency (DESIGN.md decision 2): node ids
// are allocated monotonically, so a dense vector of slots indexed directly
// by NodeId is append-only; deletion flips a tombstone bit. Each live slot
// holds its adjacency row as a vector sorted by neighbor id, which makes
// every traversal a linear scan over contiguous memory and makes
// deterministic (ascending) iteration free. Traversal goes through the
// allocation-free NodesView / NeighborsView ranges.
//
// Within one *epoch* ids are never reused — a tombstoned slot stays dead.
// compact() (DESIGN.md decision 12) closes an epoch: live ids are remapped
// densely onto [0, node_count()) in ascending order, tombstones and their
// slot storage are reclaimed, and the next epoch allocates from the dense
// top. Because the map is order-preserving, every sorted structure (rows,
// claim mirrors, member lists) stays sorted under an in-place rewrite.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include "graph/types.hpp"
#include "util/expects.hpp"

namespace xheal::graph {

/// Sorted set of cloud colors claiming one edge, with inline storage for
/// the common case: nearly every edge carries at most a few claims, so the
/// repair hot path's claim churn (splice out, splice in) never touches the
/// heap. Spills to a heap vector past `inline_capacity` and stays there
/// (the vector keeps its capacity), so repeated churn stays allocation-free
/// either way.
class ColorSet {
public:
    using value_type = ColorId;
    using const_iterator = const ColorId*;

    bool contains(ColorId c) const { return std::binary_search(begin(), end(), c); }

    /// Insert keeping ascending order. Returns false if already present.
    bool insert(ColorId c) {
        ColorId* d = data();
        ColorId* pos = std::lower_bound(d, d + size_, c);
        if (pos != d + size_ && *pos == c) return false;
        std::size_t at = static_cast<std::size_t>(pos - d);
        if (!heap_ && size_ == inline_capacity) {
            overflow_.assign(inline_.begin(), inline_.end());
            heap_ = true;
        }
        if (heap_) {
            overflow_.insert(overflow_.begin() + static_cast<std::ptrdiff_t>(at), c);
        } else {
            for (std::size_t i = size_; i > at; --i) inline_[i] = inline_[i - 1];
            inline_[at] = c;
        }
        ++size_;
        return true;
    }

    /// Erase if present. Returns false if absent.
    bool erase(ColorId c) {
        ColorId* d = data();
        ColorId* pos = std::lower_bound(d, d + size_, c);
        if (pos == d + size_ || *pos != c) return false;
        std::size_t at = static_cast<std::size_t>(pos - d);
        if (heap_) {
            overflow_.erase(overflow_.begin() + static_cast<std::ptrdiff_t>(at));
        } else {
            for (std::size_t i = at + 1; i < size_; ++i) inline_[i - 1] = inline_[i];
        }
        --size_;
        return true;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    const_iterator begin() const { return data(); }
    const_iterator end() const { return data() + size_; }
    ColorId front() const { return data()[0]; }
    ColorId operator[](std::size_t i) const { return data()[i]; }

    friend bool operator==(const ColorSet& a, const ColorSet& b) {
        return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }
    bool operator==(const std::vector<ColorId>& v) const {
        return std::equal(begin(), end(), v.begin(), v.end());
    }

private:
    static constexpr std::size_t inline_capacity = 3;

    const ColorId* data() const { return heap_ ? overflow_.data() : inline_.data(); }
    ColorId* data() { return heap_ ? overflow_.data() : inline_.data(); }

    std::array<ColorId, inline_capacity> inline_{};
    std::vector<ColorId> overflow_;
    std::uint32_t size_ = 0;
    bool heap_ = false;
};

/// Claim set of one edge. `colors` is a small sorted set (inline storage).
struct EdgeClaims {
    bool black = false;
    ColorSet colors;

    bool empty() const { return !black && colors.empty(); }
    bool has_color(ColorId c) const { return colors.contains(c); }
    bool colored() const { return !colors.empty(); }
};

/// One adjacency-row entry: neighbor id plus the claims of that edge.
using NeighborEntry = std::pair<NodeId, EdgeClaims>;

class Graph {
    /// empty: id not yet handed out (gap from add_node_with_id);
    /// alive: live node; dead: tombstone — the id is retired forever.
    enum class SlotState : std::uint8_t { empty, alive, dead };

    struct Slot {
        std::vector<NeighborEntry> row;  // sorted by neighbor id
        SlotState state = SlotState::empty;
    };

public:
    Graph() = default;

    // ----- allocation-free traversal views -----

    /// Forward range over the live node ids in ascending order. Iteration
    /// walks the slot vector and skips tombstones; no allocation.
    class NodesView {
    public:
        class iterator {
        public:
            using value_type = NodeId;
            using difference_type = std::ptrdiff_t;
            using iterator_category = std::forward_iterator_tag;
            using pointer = const NodeId*;
            using reference = NodeId;

            iterator() = default;
            iterator(const Slot* slots, NodeId id, NodeId end)
                : slots_(slots), id_(id), end_(end) {
                skip_dead();
            }

            NodeId operator*() const { return id_; }
            iterator& operator++() {
                ++id_;
                skip_dead();
                return *this;
            }
            iterator operator++(int) {
                iterator copy = *this;
                ++*this;
                return copy;
            }
            bool operator==(const iterator& other) const { return id_ == other.id_; }
            bool operator!=(const iterator& other) const { return id_ != other.id_; }

        private:
            void skip_dead() {
                while (id_ < end_ && slots_[id_].state != SlotState::alive) ++id_;
            }

            const Slot* slots_ = nullptr;
            NodeId id_ = 0;
            NodeId end_ = 0;
        };

        iterator begin() const { return {slots_, 0, end_}; }
        iterator end() const { return {slots_, end_, end_}; }
        std::size_t size() const { return live_; }
        bool empty() const { return live_ == 0; }
        /// Smallest live node id. Requires a non-empty graph.
        NodeId front() const {
            XHEAL_EXPECTS(live_ > 0);
            return *begin();
        }

    private:
        friend class Graph;
        NodesView(const Slot* slots, NodeId end, std::size_t live)
            : slots_(slots), end_(end), live_(live) {}

        const Slot* slots_;
        NodeId end_;
        std::size_t live_;
    };

    /// Random-access range over the neighbor ids of one node, ascending.
    /// A projection of the sorted adjacency row; no allocation.
    class NeighborsView {
    public:
        class iterator {
        public:
            using value_type = NodeId;
            using difference_type = std::ptrdiff_t;
            using iterator_category = std::random_access_iterator_tag;
            using pointer = const NodeId*;
            using reference = NodeId;

            iterator() = default;
            explicit iterator(const NeighborEntry* p) : p_(p) {}

            NodeId operator*() const { return p_->first; }
            NodeId operator[](difference_type d) const { return p_[d].first; }
            iterator& operator++() {
                ++p_;
                return *this;
            }
            iterator operator++(int) {
                iterator copy = *this;
                ++p_;
                return copy;
            }
            iterator& operator--() {
                --p_;
                return *this;
            }
            iterator operator--(int) {
                iterator copy = *this;
                --p_;
                return copy;
            }
            iterator& operator+=(difference_type d) {
                p_ += d;
                return *this;
            }
            iterator& operator-=(difference_type d) {
                p_ -= d;
                return *this;
            }
            iterator operator+(difference_type d) const { return iterator(p_ + d); }
            friend iterator operator+(difference_type d, const iterator& it) {
                return iterator(it.p_ + d);
            }
            iterator operator-(difference_type d) const { return iterator(p_ - d); }
            difference_type operator-(const iterator& other) const { return p_ - other.p_; }
            bool operator==(const iterator& other) const = default;
            auto operator<=>(const iterator& other) const = default;

        private:
            const NeighborEntry* p_ = nullptr;
        };

        iterator begin() const { return iterator(row_.data()); }
        iterator end() const { return iterator(row_.data() + row_.size()); }
        std::size_t size() const { return row_.size(); }
        bool empty() const { return row_.empty(); }
        NodeId operator[](std::size_t i) const { return row_[i].first; }
        NodeId front() const { return row_.front().first; }
        NodeId back() const { return row_.back().first; }

    private:
        friend class Graph;
        explicit NeighborsView(std::span<const NeighborEntry> row) : row_(row) {}

        std::span<const NeighborEntry> row_;
    };

    /// Live node ids, ascending. O(1), allocation-free.
    NodesView nodes() const {
        return NodesView(slots_.data(), next_id_, live_nodes_);
    }

    /// Neighbor ids of v, ascending. O(1), allocation-free. Requires
    /// presence.
    NeighborsView neighbors(NodeId v) const { return NeighborsView(row(v)); }

    /// The sorted adjacency row of v as (neighbor, claims) entries.
    /// O(1), allocation-free. Requires presence.
    std::span<const NeighborEntry> row(NodeId v) const {
        XHEAL_EXPECTS(has_node(v));
        return slots_[v].row;
    }

    // ----- nodes -----

    /// Allocate and insert a fresh node; returns its id.
    NodeId add_node();

    /// Insert a node with a caller-chosen id (used to mirror ids between G
    /// and G'). The id must not be present and must not have been retired:
    /// within an epoch ids are never reused, so a tombstoned slot stays
    /// dead until the next compact().
    void add_node_with_id(NodeId v);

    /// Remove a node and all incident edges (all claims). Requires presence.
    /// The slot becomes a tombstone; the id is not handed out again until a
    /// compaction epoch reclaims it.
    void remove_node(NodeId v);

    bool has_node(NodeId v) const {
        return v < slots_.size() && slots_[v].state == SlotState::alive;
    }
    std::size_t node_count() const { return live_nodes_; }

    // ----- id compaction (DESIGN.md decision 12) -----

    /// Dead/empty slots currently addressable, i.e. next_id() minus the
    /// live population: the id-space waste a compaction would reclaim.
    std::size_t retired_slots() const { return next_id_ - live_nodes_; }

    /// Close the current id epoch: build the ascending dense old->new map
    /// of the live ids (dense id = rank of the old id among live ids) into
    /// `old_to_new` — sized to the pre-compaction next_id(), invalid_node
    /// for dead/empty ids — and apply it via apply_id_map(). The caller's
    /// vector is reused scratch, so steady-state compaction allocates
    /// nothing once capacities have grown.
    void compact(std::vector<NodeId>& old_to_new);

    /// Apply an externally built compaction map: must be exactly the
    /// ascending dense map of THIS graph's live id set (mirrored graphs —
    /// G and a purged G' — share one map). Rewrites every row id in place
    /// (order-preserving, so rows stay sorted), slides live slots down to
    /// their dense position, reclaims tombstoned slot storage and resets
    /// next_id() to node_count(). Degrees are unchanged. An enabled
    /// structure journal is cleared and flagged overflowed: renumbering
    /// invalidates incremental snapshots, forcing consumers to rebuild.
    void apply_id_map(const std::vector<NodeId>& old_to_new);

    // ----- edges / claims -----

    /// Add the black claim on (u, v). Idempotent. u != v, both present.
    void add_black_edge(NodeId u, NodeId v);

    /// Add color claim c on (u, v). Idempotent. u != v, both present,
    /// c != invalid_color.
    void add_color_claim(NodeId u, NodeId v, ColorId c);

    /// Remove color claim c from (u, v) if present; removes the edge when no
    /// claims remain. Returns true if the claim existed.
    bool remove_color_claim(NodeId u, NodeId v, ColorId c);

    /// Remove the black claim from (u, v) if present; removes the edge when
    /// no claims remain. Returns true if the claim existed. (The healer never
    /// calls this; provided for tests and baselines.)
    bool remove_black_claim(NodeId u, NodeId v);

    bool has_edge(NodeId u, NodeId v) const;
    bool has_black_claim(NodeId u, NodeId v) const;
    bool has_color_claim(NodeId u, NodeId v, ColorId c) const;
    /// True if the edge exists and some cloud claims it.
    bool is_colored_edge(NodeId u, NodeId v) const;

    /// Claims of an existing edge. Requires has_edge(u, v).
    const EdgeClaims& claims(NodeId u, NodeId v) const;

    std::size_t degree(NodeId v) const {
        XHEAL_EXPECTS(has_node(v));
        return slots_[v].row.size();
    }
    std::size_t edge_count() const { return edge_count_; }

    /// Visit every edge once as (u, v, claims) with u < v, in ascending
    /// (u, v) order. Walks the rows directly; no allocation.
    template <typename F>
    void for_each_edge(F&& f) const {
        for (NodeId u = 0; u < next_id_; ++u) {
            if (slots_[u].state != SlotState::alive) continue;
            for (const NeighborEntry& e : slots_[u].row) {
                if (e.first > u) f(u, e.first, e.second);
            }
        }
    }

    /// Sum of degrees of the given nodes (the paper's vol(S)).
    template <typename Range>
    std::size_t volume(const Range& nodes) const {
        std::size_t vol = 0;
        for (NodeId v : nodes) vol += degree(v);
        return vol;
    }

    /// Largest / smallest degree over live nodes, maintained incrementally
    /// through a degree histogram: amortized O(1), never a full scan.
    std::size_t max_degree() const;
    std::size_t min_degree() const;

    /// Next id that add_node() would return (ids below are used or retired).
    NodeId next_id() const { return next_id_; }

    // ----- structure journal -----
    //
    // Opt-in journal of structure-touched node ids for incremental snapshot
    // consumers (the spectral CSR patch path). While enabled (limit > 0),
    // every mutation that changes a node's adjacency row or liveness appends
    // the touched ids; past `limit` entries the journal stops recording and
    // raises the overflow flag, telling consumers to fall back to a full
    // rebuild. Duplicate and since-deleted ids may appear — consumers
    // dedupe. The journal is bookkeeping about the graph, not graph state,
    // so draining it is a const operation.

    /// Enable (limit > 0) or disable (0) the journal; clears it either way.
    void set_journal_limit(std::size_t limit) {
        journal_limit_ = limit;
        clear_journal();
    }

    /// Touched node ids since the last clear, in mutation order.
    const std::vector<NodeId>& journal() const { return journal_; }

    /// True once a mutation was dropped because the journal hit its limit.
    bool journal_overflowed() const { return journal_overflow_; }

    void clear_journal() const {
        journal_.clear();
        journal_overflow_ = false;
    }

private:
    void journal_touch(NodeId v) {
        if (journal_limit_ == 0) return;
        if (journal_.size() >= journal_limit_) {
            journal_overflow_ = true;
            return;
        }
        journal_.push_back(v);
    }

    /// Grow the slot vector so ids [0, n) are addressable.
    void reserve_slots(NodeId n);

    /// Hand a recycled dead-node row (capacity, no contents) to a fresh slot.
    void adopt_pooled_row(Slot& slot);

    /// lower_bound position of v in a sorted row.
    static std::vector<NeighborEntry>::iterator row_lower_bound(
        std::vector<NeighborEntry>& row, NodeId v);
    static std::vector<NeighborEntry>::const_iterator row_lower_bound(
        const std::vector<NeighborEntry>& row, NodeId v);

    /// Entry of v in u's row, or nullptr if the edge is absent.
    const EdgeClaims* find_claims(NodeId u, NodeId v) const;

    /// Claims of an existing edge seen from both sides; {nullptr, nullptr}
    /// if absent. Never creates the edge — the removal paths rely on that.
    std::pair<EdgeClaims*, EdgeClaims*> find_edge(NodeId u, NodeId v);

    /// Claims of (u, v) seen from both sides, creating the edge if absent.
    /// The two pointers stay valid together (distinct row vectors).
    std::pair<EdgeClaims*, EdgeClaims*> ensure_edge(NodeId u, NodeId v);

    /// Erase an existing edge from both rows and the degree histogram.
    void erase_edge(NodeId u, NodeId v);

    // Degree-histogram bookkeeping. `max_hint_` is always >= the true max
    // and `min_hint_` always <= the true min; queries walk the hint to the
    // first non-empty bucket, which is amortized against the mutations that
    // moved it.
    void degree_changed(std::size_t old_degree, std::size_t new_degree);

    /// Adjacency-row storage reclaimed from tombstoned slots and re-issued
    /// by add_node (ids are never reused, so without recycling every fresh
    /// node would pay first-growth allocations even in steady-state churn).
    /// Capacity only — never contents. Capped: delete-heavy runs release
    /// rows beyond the cap instead of hoarding them.
    static constexpr std::size_t row_pool_cap = 1024;
    std::vector<std::vector<NeighborEntry>> row_pool_;

    std::vector<Slot> slots_;
    std::vector<std::size_t> degree_hist_;  // degree_hist_[d] = live nodes of degree d
    std::size_t live_nodes_ = 0;
    std::size_t edge_count_ = 0;
    NodeId next_id_ = 0;
    mutable std::size_t max_hint_ = 0;
    mutable std::size_t min_hint_ = 0;
    mutable std::vector<NodeId> journal_;
    std::size_t journal_limit_ = 0;
    mutable bool journal_overflow_ = false;
};

}  // namespace xheal::graph
