#include "amperebleed/stats/descriptive.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace amperebleed::stats {
namespace {

TEST(Summarize, EmptyInputIsZeroed) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
}

TEST(Summarize, KnownValues) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 8u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_DOUBLE_EQ(s.variance, 4.0);
  EXPECT_DOUBLE_EQ(s.stddev, 2.0);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
}

TEST(Mean, SingleElement) {
  const std::vector<double> xs = {3.25};
  EXPECT_DOUBLE_EQ(mean(xs), 3.25);
}

TEST(Quantile, InterpolatesLinearly) {
  const std::vector<double> xs = {4.0, 1.0, 3.0, 2.0};  // unsorted on purpose
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0 / 3.0), 2.0);
}

TEST(Quantile, Validation) {
  EXPECT_THROW(quantile({}, 0.5), std::invalid_argument);
  const std::vector<double> xs = {1.0};
  EXPECT_THROW(quantile(xs, -0.1), std::invalid_argument);
  EXPECT_THROW(quantile(xs, 1.1), std::invalid_argument);
}

TEST(Median, OddAndEven) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(MeanAbsSuccessiveDiff, KnownSeries) {
  const std::vector<double> xs = {0.0, 40.0, 80.0, 120.0};
  EXPECT_DOUBLE_EQ(mean_abs_successive_diff(xs), 40.0);
  const std::vector<double> zig = {0.0, 1.0, 0.0, 1.0};
  EXPECT_DOUBLE_EQ(mean_abs_successive_diff(zig), 1.0);
}

TEST(MeanAbsSuccessiveDiff, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(mean_abs_successive_diff({}), 0.0);
  EXPECT_DOUBLE_EQ(mean_abs_successive_diff(std::vector<double>{5.0}), 0.0);
}

class QuantileMonotoneProperty : public ::testing::TestWithParam<double> {};

TEST_P(QuantileMonotoneProperty, QuantileIsMonotoneInQ) {
  const std::vector<double> xs = {5.0, -2.0, 7.5, 0.0, 3.0, 3.0, 9.0};
  const double q = GetParam();
  EXPECT_LE(quantile(xs, q * 0.5), quantile(xs, q));
  EXPECT_LE(quantile(xs, q), quantile(xs, 0.5 + q * 0.5));
}

INSTANTIATE_TEST_SUITE_P(Quantiles, QuantileMonotoneProperty,
                         ::testing::Values(0.1, 0.25, 0.5, 0.75, 0.9, 1.0));

}  // namespace
}  // namespace amperebleed::stats
