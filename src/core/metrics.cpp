#include "core/metrics.hpp"

#include <algorithm>

#include "util/expects.hpp"

namespace xheal::core {

using graph::Graph;
using graph::NodeId;

DegreeIncrease degree_increase(const Graph& g, const Graph& ref) {
    DegreeIncrease out;
    double sum = 0.0;
    std::size_t counted = 0;
    for (NodeId v : g.nodes()) {
        if (!ref.has_node(v)) continue;
        std::size_t dref = ref.degree(v);
        if (dref == 0) continue;  // isolated insertions have no meaningful ratio
        double ratio = static_cast<double>(g.degree(v)) / static_cast<double>(dref);
        sum += ratio;
        ++counted;
        if (ratio > out.max_ratio) {
            out.max_ratio = ratio;
            out.argmax = v;
        }
    }
    out.mean_ratio = counted == 0 ? 0.0 : sum / static_cast<double>(counted);
    return out;
}

double theorem2_lambda_bound(double lambda_ref, std::size_t dmin_ref,
                             std::size_t dmax_ref, std::size_t kappa) {
    XHEAL_EXPECTS(kappa >= 1);
    if (dmax_ref == 0) return 0.0;
    double kd = static_cast<double>(kappa) * static_cast<double>(dmax_ref);
    double term1 = lambda_ref * lambda_ref * static_cast<double>(dmin_ref) *
                   static_cast<double>(dmin_ref) / (8.0 * kd * kd);
    double term2 = 1.0 / (2.0 * kd * kd);
    return std::min(term1, term2);
}

}  // namespace xheal::core
