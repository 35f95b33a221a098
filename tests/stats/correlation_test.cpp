#include "amperebleed/stats/correlation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "amperebleed/util/rng.hpp"

namespace amperebleed::stats {
namespace {

TEST(Pearson, PerfectPositiveAndNegative) {
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> y_up = {10.0, 20.0, 30.0, 40.0};
  const std::vector<double> y_down = {8.0, 6.0, 4.0, 2.0};
  EXPECT_NEAR(pearson(x, y_up), 1.0, 1e-12);
  EXPECT_NEAR(pearson(x, y_down), -1.0, 1e-12);
}

TEST(Pearson, ConstantSeriesGivesZero) {
  const std::vector<double> x = {1.0, 2.0, 3.0};
  const std::vector<double> c = {5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(pearson(x, c), 0.0);
  EXPECT_DOUBLE_EQ(pearson(c, x), 0.0);
}

TEST(Pearson, Validation) {
  const std::vector<double> x = {1.0, 2.0};
  const std::vector<double> bad = {1.0};
  EXPECT_THROW(pearson(x, bad), std::invalid_argument);
  EXPECT_THROW(pearson(bad, bad), std::invalid_argument);
}

TEST(Pearson, SymmetricInArguments) {
  const std::vector<double> x = {1.0, 5.0, 2.0, 8.0, 3.0};
  const std::vector<double> y = {2.0, 4.0, 4.0, 9.0, 1.0};
  EXPECT_DOUBLE_EQ(pearson(x, y), pearson(y, x));
}

TEST(Pearson, InvariantUnderAffineTransform) {
  const std::vector<double> x = {1.0, 5.0, 2.0, 8.0, 3.0};
  const std::vector<double> y = {2.0, 4.0, 4.0, 9.0, 1.0};
  std::vector<double> y2;
  for (double v : y) y2.push_back(3.0 * v - 7.0);
  EXPECT_NEAR(pearson(x, y), pearson(x, y2), 1e-12);
}

TEST(Pearson, NoisyLinearRelationIsStrong) {
  util::Rng rng(123);
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 1'000; ++i) {
    x.push_back(i);
    y.push_back(2.0 * i + rng.gaussian(0.0, 5.0));
  }
  EXPECT_GT(pearson(x, y), 0.999);
}

}  // namespace
}  // namespace amperebleed::stats
