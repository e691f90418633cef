// The dense reference spectrum of a graph's Laplacian, for the tests that
// check the library's Lanczos solves (spectral/laplacian.hpp,
// spectral/probes.hpp) and closed-form spectra.
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace xheal::spectral {

enum class LaplacianKind {
    combinatorial,  ///< D - A
    normalized,     ///< I - D^{-1/2} A D^{-1/2}
};

/// All Laplacian eigenvalues (ascending) via dense Jacobi over the dense
/// Laplacian (rows in ascending id order, isolated vertices an all-zero
/// row): the O(n^3) reference the Lanczos solves are tested against;
/// n <= ~400 advised.
std::vector<double> laplacian_spectrum(const graph::Graph& g, LaplacianKind kind);

}  // namespace xheal::spectral
