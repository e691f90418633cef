// Deterministic random number generator.
//
// All randomness in the library flows through Rng so that every experiment,
// test and bench is reproducible bit-for-bit given the same seed. Rng wraps
// std::mt19937_64 and adds the common draws the healing code needs (ranged
// integers, shuffles, subset sampling).
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "util/expects.hpp"

namespace xheal::util {

/// splitmix64 finalizer: the stateless seed-derivation mix used wherever a
/// decorrelated stream must be derived from a master seed plus a salt
/// (e.g. per-workload seeds in benchmark/src/xbench.cpp). It consumes
/// nothing from any engine, so derived seeds are a pure function of
/// (seed, salt) and never perturb the master draw sequence.
inline std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

class Rng {
public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) : engine_(seed) {}

    /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
    std::uint64_t uniform_u64(std::uint64_t lo, std::uint64_t hi);

    /// Uniform size_t index in [0, n). Requires n > 0.
    std::size_t index(std::size_t n);

    /// Uniform real in [0, 1).
    double uniform01();

    /// Bernoulli trial with success probability p in [0, 1].
    bool chance(double p);

    /// Fisher-Yates shuffle.
    template <typename T>
    void shuffle(std::vector<T>& v) {
        if (v.size() < 2) return;
        for (std::size_t i = v.size() - 1; i > 0; --i) {
            std::size_t j = index(i + 1);
            using std::swap;
            swap(v[i], v[j]);
        }
    }

    /// k distinct elements sampled uniformly from v (order randomized).
    /// Requires k <= v.size().
    template <typename T>
    std::vector<T> sample(const std::vector<T>& v, std::size_t k) {
        XHEAL_EXPECTS(k <= v.size());
        std::vector<T> pool = v;
        shuffle(pool);
        pool.resize(k);
        return pool;
    }

    /// One element drawn uniformly from v. Requires v non-empty.
    template <typename T>
    const T& pick(const std::vector<T>& v) {
        XHEAL_EXPECTS(!v.empty());
        return v[index(v.size())];
    }

    /// Access to the raw engine for std distributions.
    std::mt19937_64& engine() { return engine_; }

private:
    std::mt19937_64 engine_;
};

}  // namespace xheal::util
