#include "util/rng.hpp"

namespace xheal::util {

std::uint64_t Rng::uniform_u64(std::uint64_t lo, std::uint64_t hi) {
    XHEAL_EXPECTS(lo <= hi);
    std::uniform_int_distribution<std::uint64_t> dist(lo, hi);
    return dist(engine_);
}

std::size_t Rng::index(std::size_t n) {
    XHEAL_EXPECTS(n > 0);
    return static_cast<std::size_t>(uniform_u64(0, n - 1));
}

double Rng::uniform01() {
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    return dist(engine_);
}

bool Rng::chance(double p) {
    XHEAL_EXPECTS(p >= 0.0 && p <= 1.0);
    return uniform01() < p;
}

}  // namespace xheal::util
