#include "core/metrics.hpp"

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

}  // namespace xheal::core
