#include "bench_records.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "amperebleed/util/rng.hpp"

namespace amperebleed::tools {
namespace {

std::vector<double> gaussians(double mean, double sigma, int n,
                              std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> xs;
  for (int i = 0; i < n; ++i) xs.push_back(rng.gaussian(mean, sigma));
  return xs;
}

TEST(MannWhitney, IdenticalDistributionsGiveLargePValue) {
  const auto a = gaussians(5.0, 1.0, 200, 21);
  const auto b = gaussians(5.0, 1.0, 200, 22);
  const auto result = mann_whitney_u(a, b);
  EXPECT_GT(result.p_value, 0.01);
  EXPECT_LT(std::fabs(result.z), 3.0);
}

TEST(MannWhitney, ShiftedDistributionsGiveTinyPValue) {
  const auto a = gaussians(0.0, 1.0, 100, 23);
  const auto b = gaussians(1.5, 1.0, 100, 24);
  const auto result = mann_whitney_u(a, b);
  EXPECT_LT(result.p_value, 1e-6);
  // a ranks below b -> U below its na*nb/2 midpoint -> negative z.
  EXPECT_LT(result.z, 0.0);
  EXPECT_LT(result.u, 100.0 * 100.0 / 2.0);
}

TEST(MannWhitney, RobustToOutliersWhereTTestIsNot) {
  // Rank statistics ignore magnitude: one absurd outlier must not move the
  // verdict on otherwise identical samples.
  auto a = gaussians(0.0, 1.0, 80, 25);
  const auto b = gaussians(0.0, 1.0, 80, 26);
  a[0] = 1e9;
  EXPECT_GT(mann_whitney_u(a, b).p_value, 0.01);
}

TEST(MannWhitney, HandlesHeavyTies) {
  // Discrete two-valued samples exercise the midrank + tie-correction path.
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 60; ++i) {
    a.push_back(i % 2 == 0 ? 0.0 : 1.0);
    b.push_back(i % 2 == 0 ? 0.0 : 1.0);
  }
  EXPECT_GT(mann_whitney_u(a, b).p_value, 0.5);

  // Shift the mix: b is mostly ones -> detectable despite ties.
  std::vector<double> c;
  for (int i = 0; i < 60; ++i) c.push_back(i % 6 == 0 ? 0.0 : 1.0);
  EXPECT_LT(mann_whitney_u(a, c).p_value, 0.01);
}

TEST(MannWhitney, DegenerateInputs) {
  const std::vector<double> same = {2.0, 2.0, 2.0, 2.0};
  // All values tied across both samples: variance collapses -> p = 1.
  EXPECT_DOUBLE_EQ(mann_whitney_u(same, same).p_value, 1.0);
  EXPECT_THROW(mann_whitney_u({}, same), std::invalid_argument);
  EXPECT_THROW(mann_whitney_u(same, {}), std::invalid_argument);
}

TEST(MannWhitney, KnownSmallSampleU) {
  // Textbook example: a = {1,2,3}, b = {4,5,6}. All of b beats all of a,
  // so U_a = 0 and the rank-sum of a is 6.
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> b = {4.0, 5.0, 6.0};
  const auto result = mann_whitney_u(a, b);
  EXPECT_DOUBLE_EQ(result.u, 0.0);
  EXPECT_LT(result.z, 0.0);
  // Symmetry: swapping the samples mirrors U around na*nb.
  EXPECT_DOUBLE_EQ(mann_whitney_u(b, a).u, 9.0);
  EXPECT_NEAR(mann_whitney_u(b, a).p_value, result.p_value, 1e-12);
}

}  // namespace
}  // namespace amperebleed::tools
