#include "spectral/expansion.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "graph/algorithms.hpp"
#include "spectral/csr.hpp"
#include "spectral/laplacian.hpp"

namespace xheal::spectral {

using graph::Graph;
using graph::NodeId;

namespace {

/// Shared exact enumeration over all nontrivial vertex subsets using a Gray
/// code walk so each step flips exactly one vertex and the cut size updates
/// incrementally. Calls visit(cut, size_s, vol_s) for every subset.
template <typename Visitor>
void enumerate_cuts(const Graph& g, Visitor&& visit) {
    std::size_t n = g.node_count();
    XHEAL_EXPECTS(n <= exact_expansion_limit);
    CsrGraph csr;
    csr.build(g);

    std::vector<std::uint32_t> adj_mask(n, 0);
    std::vector<std::size_t> deg(n, 0);
    for (std::uint32_t i = 0; i < n; ++i) {
        for (std::uint32_t j : csr.row(i)) adj_mask[i] |= (std::uint32_t{1} << j);
        deg[i] = csr.degree(i);
    }

    std::uint32_t gray = 0;
    std::size_t cut = 0, size_s = 0, vol_s = 0;
    std::uint64_t total = std::uint64_t{1} << n;
    for (std::uint64_t k = 1; k < total; ++k) {
        std::uint32_t next = static_cast<std::uint32_t>(k ^ (k >> 1));
        std::uint32_t flipped = gray ^ next;
        std::size_t v = static_cast<std::size_t>(std::countr_zero(flipped));
        std::size_t inside = static_cast<std::size_t>(std::popcount(adj_mask[v] & gray));
        if (next & flipped) {
            // v joined S: its edges into S stop crossing, the rest start.
            cut += deg[v] - 2 * inside;
            ++size_s;
            vol_s += deg[v];
        } else {
            cut -= deg[v] - 2 * inside;
            --size_s;
            vol_s -= deg[v];
        }
        gray = next;
        if (size_s == 0 || size_s == n) continue;
        visit(cut, size_s, vol_s);
    }
}

}  // namespace

double edge_expansion_exact(const Graph& g) {
    std::size_t n = g.node_count();
    if (n < 2) return 0.0;
    if (!graph::is_connected(g)) return 0.0;
    double best = std::numeric_limits<double>::infinity();
    enumerate_cuts(g, [&](std::size_t cut, std::size_t size_s, std::size_t) {
        std::size_t denom = std::min(size_s, n - size_s);
        best = std::min(best, static_cast<double>(cut) / static_cast<double>(denom));
    });
    return best;
}

double cheeger_exact(const Graph& g) {
    std::size_t n = g.node_count();
    if (n < 2) return 0.0;
    if (!graph::is_connected(g)) return 0.0;
    std::size_t total_vol = 2 * g.edge_count();
    if (total_vol == 0) return 0.0;
    double best = std::numeric_limits<double>::infinity();
    enumerate_cuts(g, [&](std::size_t cut, std::size_t, std::size_t vol_s) {
        std::size_t denom = std::min(vol_s, total_vol - vol_s);
        if (denom == 0) return;
        best = std::min(best, static_cast<double>(cut) / static_cast<double>(denom));
    });
    return best;
}

SweepResult sweep_cut(const Graph& g) {
    SweepResult out;
    auto fr = fiedler(g);
    if (fr.vector.empty()) return out;  // < 2 nodes or disconnected
    std::size_t n = fr.nodes.size();

    // Rescale y -> D^{-1/2} y: the sweep ordering the Cheeger proof uses.
    std::vector<double> score(n);
    for (std::size_t i = 0; i < n; ++i) {
        double d = static_cast<double>(g.degree(fr.nodes[i]));
        score[i] = d > 0.0 ? fr.vector[i] / std::sqrt(d) : fr.vector[i];
    }
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return score[a] < score[b]; });

    // Sweep rank of every node, indexed by NodeId.
    std::vector<std::size_t> rank(g.next_id());
    for (std::size_t r = 0; r < n; ++r) rank[fr.nodes[order[r]]] = r;

    std::size_t total_vol = 2 * g.edge_count();
    std::size_t cut = 0, vol_s = 0;
    double best_h = std::numeric_limits<double>::infinity();
    double best_phi = std::numeric_limits<double>::infinity();
    std::size_t best_phi_prefix = 0;

    for (std::size_t k = 0; k + 1 < n; ++k) {
        NodeId v = fr.nodes[order[k]];
        std::size_t inside = 0;
        for (NodeId u : g.neighbors(v)) {
            if (rank[u] < k) ++inside;
        }
        cut += g.degree(v) - 2 * inside;
        vol_s += g.degree(v);
        std::size_t size_s = k + 1;
        double h = static_cast<double>(cut) /
                   static_cast<double>(std::min(size_s, n - size_s));
        best_h = std::min(best_h, h);
        std::size_t vol_denom = std::min(vol_s, total_vol - vol_s);
        if (vol_denom > 0) {
            double phi = static_cast<double>(cut) / static_cast<double>(vol_denom);
            if (phi < best_phi) {
                best_phi = phi;
                best_phi_prefix = size_s;
            }
        }
    }

    out.expansion = best_h;
    out.conductance = best_phi;
    out.best_side.reserve(best_phi_prefix);
    for (std::size_t r = 0; r < best_phi_prefix; ++r) out.best_side.push_back(fr.nodes[order[r]]);
    return out;
}

double edge_expansion_estimate(const Graph& g) {
    if (g.node_count() < 2) return 0.0;
    if (g.node_count() <= estimate_exact_limit)
        return edge_expansion_exact(g);
    return sweep_cut(g).expansion;
}

double cheeger_estimate(const Graph& g) {
    if (g.node_count() < 2) return 0.0;
    if (g.node_count() <= estimate_exact_limit)
        return cheeger_exact(g);
    return sweep_cut(g).conductance;
}

}  // namespace xheal::spectral
