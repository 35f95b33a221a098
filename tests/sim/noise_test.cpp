#include "amperebleed/sim/noise.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <vector>

#include "support/reference_acquisition.hpp"

namespace amperebleed::sim {
namespace {

TEST(OrnsteinUhlenbeck, StartsAtMean) {
  OrnsteinUhlenbeck ou(5.0, 1.0, 0.5, 1);
  EXPECT_DOUBLE_EQ(ou.value(), 5.0);
}

TEST(OrnsteinUhlenbeck, RejectsBadParameters) {
  EXPECT_THROW(OrnsteinUhlenbeck(0.0, 0.0, 1.0, 1), std::invalid_argument);
  EXPECT_THROW(OrnsteinUhlenbeck(0.0, -1.0, 1.0, 1), std::invalid_argument);
  EXPECT_THROW(OrnsteinUhlenbeck(0.0, 1.0, -1.0, 1), std::invalid_argument);
}

TEST(OrnsteinUhlenbeck, ZeroDtIsIdentity) {
  OrnsteinUhlenbeck ou(0.0, 1.0, 1.0, 3);
  ou.step(seconds(1));
  const double v = ou.value();
  EXPECT_DOUBLE_EQ(ou.step(TimeNs{0}), v);
}

TEST(OrnsteinUhlenbeck, NegativeDtRejected) {
  OrnsteinUhlenbeck ou(0.0, 1.0, 1.0, 3);
  EXPECT_THROW(ou.step(TimeNs{-1}), std::invalid_argument);
}

TEST(OrnsteinUhlenbeck, StationaryStddevFormula) {
  OrnsteinUhlenbeck ou(0.0, 2.0, 4.0, 5);
  EXPECT_DOUBLE_EQ(ou.stationary_stddev(), 4.0 / std::sqrt(4.0));
}

TEST(OrnsteinUhlenbeck, LongRunStatisticsMatchStationary) {
  OrnsteinUhlenbeck ou(10.0, 5.0, 2.0, 11);
  // Skip burn-in, then sample well-separated points.
  ou.step(seconds(10));
  const int n = 20'000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = ou.step(milliseconds(500));  // >> 1/theta decorrelated
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), ou.stationary_stddev(), 0.05);
}

TEST(OrnsteinUhlenbeck, StatisticsIndependentOfStepSize) {
  // The exact discretization means many small steps ~ one big step in law.
  // Compare long-run variance under two very different step sizes.
  const auto run_var = [](TimeNs dt, int steps_between, std::uint64_t seed) {
    OrnsteinUhlenbeck ou(0.0, 5.0, 2.0, seed);
    ou.step(seconds(10));
    double sum_sq = 0.0;
    const int n = 5'000;
    for (int i = 0; i < n; ++i) {
      double x = 0.0;
      for (int k = 0; k < steps_between; ++k) x = ou.step(dt);
      sum_sq += x * x;
    }
    return sum_sq / n;
  };
  const double var_coarse = run_var(milliseconds(500), 1, 21);
  const double var_fine = run_var(milliseconds(50), 10, 22);
  EXPECT_NEAR(var_coarse, var_fine, 0.1 * var_coarse + 0.02);
}

TEST(OrnsteinUhlenbeck, ResetOverridesState) {
  OrnsteinUhlenbeck ou(0.0, 1.0, 1.0, 9);
  ou.step(seconds(1));
  ou.reset(42.0);
  EXPECT_DOUBLE_EQ(ou.value(), 42.0);
}

TEST(OrnsteinUhlenbeck, MemoisedStepMatchesReferenceBitForBit) {
  // The memo is keyed on dt: alternate two steps strictly, then draw from a
  // mix with zero steps and a rare long one, against the recomputing step.
  OrnsteinUhlenbeck ou(0.3, 0.1, 0.02, 77);
  reference::OrnsteinUhlenbeck ref(0.3, 0.1, 0.02, 77);
  const TimeNs steps[] = {microseconds(2200), microseconds(1100), TimeNs{0},
                          microseconds(2200), milliseconds(35),
                          microseconds(344)};
  util::Rng pick(5);
  for (int i = 0; i < 4000; ++i) {
    const TimeNs dt =
        i < 1000 ? steps[i % 2] : steps[pick.uniform_below(std::size(steps))];
    const double got = ou.step(dt);
    const double want = ref.step(dt);
    ASSERT_EQ(std::memcmp(&got, &want, sizeof got), 0)
        << "step " << i << ": " << got << " vs " << want;
  }
}

}  // namespace
}  // namespace amperebleed::sim
