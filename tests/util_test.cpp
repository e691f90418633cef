#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "support/fit.hpp"
#include "util/expects.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace xheal::util;

TEST(Expects, ThrowsContractViolationWithLocation) {
    try {
        XHEAL_EXPECTS(1 == 2);
        FAIL() << "expected throw";
    } catch (const ContractViolation& e) {
        EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("util_test.cpp"), std::string::npos);
    }
}

TEST(Rng, DeterministicForSameSeed) {
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform_u64(0, 1000), b.uniform_u64(0, 1000));
}

TEST(Rng, DifferentSeedsDiverge) {
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.uniform_u64(0, 1'000'000) == b.uniform_u64(0, 1'000'000)) ++same;
    }
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformRangeInclusive) {
    Rng rng(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        auto x = rng.uniform_u64(3, 5);
        EXPECT_GE(x, 3u);
        EXPECT_LE(x, 5u);
        saw_lo |= (x == 3);
        saw_hi |= (x == 5);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, IndexRequiresNonEmpty) {
    Rng rng(1);
    EXPECT_THROW(rng.index(0), ContractViolation);
}

TEST(Rng, ShuffleIsPermutation) {
    Rng rng(9);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto orig = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

TEST(Rng, SampleDistinct) {
    Rng rng(11);
    std::vector<int> v{1, 2, 3, 4, 5, 6};
    auto s = rng.sample(v, 4);
    EXPECT_EQ(s.size(), 4u);
    std::sort(s.begin(), s.end());
    EXPECT_EQ(std::adjacent_find(s.begin(), s.end()), s.end());
}

TEST(Rng, ChanceBoundaries) {
    Rng rng(5);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(RunningStats, MatchesDirectComputation) {
    RunningStats s;
    std::vector<double> xs{1.0, 2.5, -3.0, 4.0, 10.0};
    for (double x : xs) s.add(x);
    EXPECT_EQ(s.count(), xs.size());
    EXPECT_DOUBLE_EQ(s.min(), -3.0);
    EXPECT_DOUBLE_EQ(s.max(), 10.0);
    EXPECT_NEAR(s.mean(), 14.5 / 5.0, 1e-12);
}

TEST(RunningStats, EmptyIsZero) {
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(Table, AlignsColumns) {
    Table t({"name", "value"});
    t.row().add("alpha").add(1.5, 2);
    t.row().add("b").add(std::size_t{42});
    std::ostringstream out;
    t.print(out);
    EXPECT_EQ(out.str(),
              "name   value\n"
              "------------\n"
              "alpha  1.50 \n"
              "b      42   \n");
}

TEST(Table, RejectsExtraCells) {
    Table t({"only"});
    t.row().add("x");
    EXPECT_THROW(t.add("y"), ContractViolation);
}

TEST(Fit, ExactLineAgainstLog2) {
    // log2 of {2, 4, 8, 16} is {1, 2, 3, 4}: y = 2 * log2(x) + 1 exactly.
    auto fit = fit_vs_log2({2, 4, 8, 16}, {3, 5, 7, 9});
    EXPECT_NEAR(fit.slope, 2.0, 1e-12);
    EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
    EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(Fit, LogGrowthDetected) {
    // y = 3*log2(x) + 1 fits perfectly against log2(x).
    std::vector<double> xs{2, 4, 8, 16, 32};
    std::vector<double> ys;
    for (double x : xs) ys.push_back(3.0 * std::log2(x) + 1.0);
    auto fit = fit_vs_log2(xs, ys);
    EXPECT_NEAR(fit.slope, 3.0, 1e-9);
    EXPECT_NEAR(fit.r2, 1.0, 1e-9);
}

TEST(Fit, LogLogExponent) {
    // y = 5*x^2 has log-log slope 2.
    std::vector<double> xs{1, 2, 4, 8};
    std::vector<double> ys;
    for (double x : xs) ys.push_back(5.0 * x * x);
    auto fit = fit_loglog(xs, ys);
    EXPECT_NEAR(fit.slope, 2.0, 1e-9);
}

TEST(Fit, ConstantSeriesHasZeroLogLogSlope) {
    auto fit = fit_loglog({1, 2, 4, 8}, {7, 7, 7, 7});
    EXPECT_NEAR(fit.slope, 0.0, 1e-12);
}

}  // namespace
