// The running statistics a healing session and each scenario phase keep
// per deletion (black degree of victims, protocol rounds).
#pragma once

#include <cstddef>
#include <limits>

namespace xheal::util {

/// Single-pass count/mean/min/max accumulator (Welford's running mean).
class RunningStats {
public:
    void add(double x);

    std::size_t count() const { return count_; }
    double mean() const { return count_ == 0 ? 0.0 : mean_; }
    double min() const { return count_ == 0 ? 0.0 : min_; }
    double max() const { return count_ == 0 ? 0.0 : max_; }

private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace xheal::util
