#include "amperebleed/stats/separability.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "amperebleed/util/rng.hpp"

namespace amperebleed::stats {
namespace {

std::vector<double> gaussian_samples(double mean, double sigma, int n,
                                     std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> xs;
  xs.reserve(n);
  for (int i = 0; i < n; ++i) xs.push_back(rng.gaussian(mean, sigma));
  return xs;
}

TEST(ThresholdAccuracy, DisjointClassesArePerfect) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> b = {10.0, 11.0, 12.0};
  EXPECT_DOUBLE_EQ(threshold_accuracy(a, b), 1.0);
  EXPECT_DOUBLE_EQ(threshold_accuracy(b, a), 1.0);  // orientation-agnostic
}

TEST(ThresholdAccuracy, IdenticalClassesAreChance) {
  // fa == fb at every threshold, so balanced accuracy is exactly chance.
  const std::vector<double> a = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(threshold_accuracy(a, a), 0.5);
}

TEST(ThresholdAccuracy, EmptyClassThrows) {
  const std::vector<double> a = {1.0};
  EXPECT_THROW(threshold_accuracy(a, {}), std::invalid_argument);
  EXPECT_THROW(threshold_accuracy({}, a), std::invalid_argument);
}

TEST(ThresholdAccuracy, GaussianOverlapMatchesTheory) {
  // Two unit-variance Gaussians d apart: best balanced accuracy = Phi(d/2).
  const auto a = gaussian_samples(0.0, 1.0, 20'000, 1);
  const auto b = gaussian_samples(2.0, 1.0, 20'000, 2);
  const double phi_1 = 0.8413;  // Phi(1.0)
  EXPECT_NEAR(threshold_accuracy(a, b), phi_1, 0.01);
}

TEST(Separable, ThresholdControlsDecision) {
  const auto a = gaussian_samples(0.0, 1.0, 5'000, 3);
  const auto b = gaussian_samples(4.0, 1.0, 5'000, 4);  // Phi(2) = 0.977
  EXPECT_TRUE(separable(a, b, 0.95));
  EXPECT_FALSE(separable(a, b, 0.999));
}

TEST(GroupIndistinguishable, WellSeparatedClassesGetDistinctGroups) {
  std::vector<std::vector<double>> classes;
  for (int k = 0; k < 5; ++k) {
    classes.push_back(gaussian_samples(k * 10.0, 0.5, 2'000, 10 + k));
  }
  const auto ids = group_indistinguishable(classes);
  EXPECT_EQ(ids, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(count_separable_groups(classes), 5u);
}

TEST(GroupIndistinguishable, OverlappingNeighboursMerge) {
  // Classes 0.5 sigma apart pairwise merge; every 3rd step is separable.
  std::vector<std::vector<double>> classes;
  for (int k = 0; k < 9; ++k) {
    classes.push_back(gaussian_samples(k * 1.0, 1.0, 4'000, 30 + k));
  }
  const auto groups = count_separable_groups(classes, 0.95);
  EXPECT_LT(groups, 9u);
  EXPECT_GE(groups, 2u);
  // Group ids must be nondecreasing.
  const auto ids = group_indistinguishable(classes, 0.95);
  for (std::size_t i = 1; i < ids.size(); ++i) {
    EXPECT_GE(ids[i], ids[i - 1]);
    EXPECT_LE(ids[i] - ids[i - 1], 1u);
  }
}

TEST(GroupIndistinguishable, EmptyAndSingleton) {
  EXPECT_EQ(count_separable_groups({}), 0u);
  std::vector<std::vector<double>> one = {{1.0, 2.0}};
  EXPECT_EQ(count_separable_groups(one), 1u);
}

}  // namespace
}  // namespace amperebleed::stats
