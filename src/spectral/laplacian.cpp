#include "spectral/laplacian.hpp"

#include "spectral/probes.hpp"

namespace xheal::spectral {

using graph::Graph;

FiedlerResult fiedler(const Graph& g) {
    ProbeEngine engine;
    FiedlerResult out;
    out.lambda2 = engine.lambda2_sparse(g);
    if (engine.ritz_vector().empty()) return out;  // < 2 nodes or disconnected
    out.vector = engine.ritz_vector();
    out.nodes = engine.ritz_nodes();
    return out;
}

double lambda2(const Graph& g) { return ProbeEngine().lambda2_sparse(g); }

}  // namespace xheal::spectral
