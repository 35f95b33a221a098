#include "amperebleed/ml/metrics.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace amperebleed::ml {
namespace {

TEST(Accuracy, Basics) {
  const std::vector<int> truth = {0, 1, 2, 1};
  const std::vector<int> pred = {0, 1, 1, 1};
  EXPECT_DOUBLE_EQ(accuracy(truth, pred), 0.75);
  EXPECT_DOUBLE_EQ(accuracy({}, {}), 0.0);
}

TEST(Accuracy, LengthMismatchThrows) {
  const std::vector<int> a = {0, 1};
  const std::vector<int> b = {0};
  EXPECT_THROW(accuracy(a, b), std::invalid_argument);
}

TEST(TopKAccuracy, CountsMembership) {
  const std::vector<int> truth = {3, 1, 0};
  const std::vector<std::vector<int>> candidates = {
      {0, 1, 3},  // hit at rank 3
      {2, 0},     // miss
      {0},        // hit at rank 1
  };
  EXPECT_NEAR(top_k_accuracy(truth, candidates), 2.0 / 3.0, 1e-12);
}

TEST(TopKAccuracy, Validation) {
  const std::vector<int> truth = {0};
  EXPECT_THROW(top_k_accuracy(truth, {}), std::invalid_argument);
  EXPECT_DOUBLE_EQ(top_k_accuracy({}, {}), 0.0);
}

}  // namespace
}  // namespace amperebleed::ml
