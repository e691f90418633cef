#include "util/stats.hpp"

#include <algorithm>

namespace xheal::util {

void RunningStats::add(double x) {
    ++count_;
    mean_ += (x - mean_) / static_cast<double>(count_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

}  // namespace xheal::util
