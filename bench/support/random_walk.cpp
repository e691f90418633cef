#include "support/random_walk.hpp"

#include <cmath>
#include <vector>

#include "spectral/csr.hpp"
#include "util/expects.hpp"

namespace xheal::spectral {

using graph::Graph;
using graph::NodeId;

namespace {

/// One lazy-walk step (stay with probability 1/2, otherwise move to a
/// uniform neighbor) over the snapshot's dense indexing.
std::vector<double> lazy_walk_step(const CsrGraph& csr, const std::vector<double>& p) {
    std::vector<double> next(p.size(), 0.0);
    for (std::uint32_t i = 0; i < csr.size(); ++i) {
        double mass = p[i];
        if (mass == 0.0) continue;
        std::size_t deg = csr.degree(i);
        if (deg == 0) {
            next[i] += mass;  // isolated vertex holds its mass
            continue;
        }
        next[i] += 0.5 * mass;
        double share = 0.5 * mass / static_cast<double>(deg);
        for (std::uint32_t j : csr.row(i)) next[j] += share;
    }
    return next;
}

/// pi(v) = deg(v) / 2m, aligned with nodes() order (ascending id).
std::vector<double> stationary_distribution(const Graph& g) {
    XHEAL_EXPECTS(g.edge_count() > 0);
    std::vector<double> pi;
    pi.reserve(g.node_count());
    double total = 2.0 * static_cast<double>(g.edge_count());
    for (NodeId v : g.nodes()) pi.push_back(static_cast<double>(g.degree(v)) / total);
    return pi;
}

/// Total variation distance between two distributions of equal length.
double total_variation(const std::vector<double>& a, const std::vector<double>& b) {
    XHEAL_EXPECTS(a.size() == b.size());
    double sum = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) sum += std::abs(a[i] - b[i]);
    return 0.5 * sum;
}

}  // namespace

std::optional<std::size_t> mixing_time(const Graph& g, NodeId source, double epsilon,
                                       std::size_t max_steps) {
    XHEAL_EXPECTS(g.has_node(source));
    XHEAL_EXPECTS(epsilon > 0.0);
    if (g.edge_count() == 0) return std::nullopt;
    auto pi = stationary_distribution(g);
    CsrGraph csr;
    csr.build(g);
    std::vector<double> p(g.node_count(), 0.0);
    p[csr.index_of(source)] = 1.0;
    for (std::size_t t = 0; t <= max_steps; ++t) {
        if (total_variation(p, pi) <= epsilon) return t;
        p = lazy_walk_step(csr, p);
    }
    return std::nullopt;
}

}  // namespace xheal::spectral
