#include "graph/algorithms.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>

namespace xheal::graph {

namespace {

/// The one BFS: floods src's component through `dist` (indexed by NodeId,
/// sized g.next_id()). Entries already != unreached count as visited, so
/// callers can flood several sources through one array. `order` is the work
/// queue; on return it holds the reached nodes in BFS order (src first).
void flood(const Graph& g, NodeId src, std::vector<std::size_t>& dist,
           std::vector<NodeId>& order) {
    order.clear();
    order.push_back(src);
    dist[src] = 0;
    for (std::size_t head = 0; head < order.size(); ++head) {
        NodeId u = order[head];
        std::size_t du = dist[u];
        for (NodeId v : g.neighbors(u)) {
            if (dist[v] == unreached) {
                dist[v] = du + 1;
                order.push_back(v);
            }
        }
    }
}

}  // namespace

std::vector<std::size_t> bfs_distances(const Graph& g, NodeId src) {
    XHEAL_EXPECTS(g.has_node(src));
    std::vector<std::size_t> dist(g.next_id(), unreached);
    std::vector<NodeId> order;
    flood(g, src, dist, order);
    return dist;
}

std::optional<std::size_t> distance(const Graph& g, NodeId u, NodeId v) {
    XHEAL_EXPECTS(g.has_node(u));
    XHEAL_EXPECTS(g.has_node(v));
    std::size_t d = bfs_distances(g, u)[v];
    if (d == unreached) return std::nullopt;
    return d;
}

bool is_connected(const Graph& g) {
    if (g.node_count() <= 1) return true;
    std::vector<std::size_t> dist(g.next_id(), unreached);
    std::vector<NodeId> order;
    flood(g, g.nodes().front(), dist, order);
    return order.size() == g.node_count();
}

std::vector<std::vector<NodeId>> connected_components(const Graph& g) {
    std::vector<std::vector<NodeId>> comps;
    std::vector<std::size_t> dist(g.next_id(), unreached);
    std::vector<NodeId> order;
    // Ascending sweep: each flood starts at its component's smallest id, so
    // the components come out sorted by smallest member.
    for (NodeId v : g.nodes()) {
        if (dist[v] != unreached) continue;
        flood(g, v, dist, order);
        std::sort(order.begin(), order.end());
        comps.push_back(order);
    }
    return comps;
}

std::optional<std::size_t> diameter_exact(const Graph& g) {
    if (g.node_count() == 0) return std::nullopt;
    std::size_t diameter = 0;
    std::vector<std::size_t> dist;
    std::vector<NodeId> order;
    for (NodeId v : g.nodes()) {
        dist.assign(g.next_id(), unreached);
        flood(g, v, dist, order);
        if (order.size() != g.node_count()) return std::nullopt;
        diameter = std::max(diameter, dist[order.back()]);  // BFS order is by distance
    }
    return diameter;
}

std::vector<NodeId> articulation_points(const Graph& g) {
    // Iterative Tarjan lowpoint DFS (recursion would overflow on long
    // paths); disc/low/cut are flat arrays indexed by NodeId.
    struct Frame {
        NodeId node;
        NodeId parent;
        Graph::NeighborsView nbrs;  // view into the row; rows are stable here
        std::size_t next = 0;
        std::size_t child_count = 0;
    };
    std::vector<std::size_t> disc(g.next_id(), unreached);
    std::vector<std::size_t> low(g.next_id(), 0);
    std::vector<std::uint8_t> cut(g.next_id(), 0);
    std::vector<Frame> stack;
    std::size_t timer = 0;
    for (NodeId root : g.nodes()) {
        if (disc[root] != unreached) continue;
        stack.push_back({root, invalid_node, g.neighbors(root), 0, 0});
        disc[root] = low[root] = timer++;
        while (!stack.empty()) {
            Frame& f = stack.back();
            if (f.next < f.nbrs.size()) {
                NodeId w = f.nbrs[f.next++];
                if (w == f.parent) continue;
                if (disc[w] != unreached) {
                    low[f.node] = std::min(low[f.node], disc[w]);
                    continue;
                }
                ++f.child_count;
                disc[w] = low[w] = timer++;
                stack.push_back({w, f.node, g.neighbors(w), 0, 0});
            } else {
                NodeId done = f.node;
                NodeId parent = f.parent;
                std::size_t root_children = f.child_count;
                stack.pop_back();
                if (parent == invalid_node) {
                    if (root_children >= 2) cut[done] = 1;
                    continue;
                }
                Frame& pf = stack.back();
                low[pf.node] = std::min(low[pf.node], low[done]);
                // Non-root parent is a cut vertex if the finished child
                // cannot reach above the parent. The root is handled by the
                // child-count rule when its own frame pops.
                if (pf.parent != invalid_node && low[done] >= disc[pf.node]) cut[pf.node] = 1;
            }
        }
    }
    std::vector<NodeId> out;
    for (NodeId v = 0; v < cut.size(); ++v)
        if (cut[v] != 0) out.push_back(v);
    return out;
}

std::size_t cut_size(const Graph& g, std::span<const NodeId> s) {
    XHEAL_EXPECTS(std::adjacent_find(s.begin(), s.end(), std::greater_equal<>()) == s.end());
    std::size_t crossing = 0;
    for (NodeId u : s) {
        XHEAL_EXPECTS(g.has_node(u));
        for (NodeId v : g.neighbors(u)) {
            if (!std::binary_search(s.begin(), s.end(), v)) ++crossing;
        }
    }
    return crossing;
}

double stretch_vs(const Graph& g, const Graph& ref, const std::vector<NodeId>& sources) {
    std::vector<NodeId> srcs = sources;
    if (srcs.empty()) {
        auto view = g.nodes();
        srcs.assign(view.begin(), view.end());
    }
    std::vector<std::size_t> dg, dr;
    std::vector<NodeId> order_g, order_r;
    double worst = 0.0;
    for (NodeId s : srcs) {
        if (!g.has_node(s) || !ref.has_node(s)) continue;
        dg.assign(g.next_id(), unreached);
        dr.assign(ref.next_id(), unreached);
        flood(g, s, dg, order_g);
        flood(ref, s, dr, order_r);
        for (NodeId t : order_r) {
            if (t == s) continue;
            if (!g.has_node(t)) continue;  // deleted nodes don't count
            if (dg[t] == unreached) return std::numeric_limits<double>::infinity();
            double ratio = static_cast<double>(dg[t]) / static_cast<double>(dr[t]);
            worst = std::max(worst, ratio);
        }
    }
    return worst;
}

}  // namespace xheal::graph
