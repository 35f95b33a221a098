#include "amperebleed/stats/hypothesis.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "amperebleed/util/rng.hpp"

namespace amperebleed::stats {
namespace {

std::vector<double> gaussians(double mean, double sigma, int n,
                              std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> xs;
  for (int i = 0; i < n; ++i) xs.push_back(rng.gaussian(mean, sigma));
  return xs;
}

TEST(KsTest, IdenticalSamplesGiveZeroDistance) {
  const auto a = gaussians(0.0, 1.0, 300, 7);
  const auto result = ks_test(a, a);
  EXPECT_DOUBLE_EQ(result.d, 0.0);
  EXPECT_NEAR(result.p_value, 1.0, 1e-6);
}

TEST(KsTest, SameMeanDifferentShapeIsDetected) {
  // A pure variance change leaves the means equal; KS still sees it.
  const auto narrow = gaussians(0.0, 0.5, 600, 8);
  const auto wide = gaussians(0.0, 2.0, 600, 9);
  EXPECT_LT(ks_test(narrow, wide).p_value, 1e-6);
}

TEST(KsTest, DisjointDistributionsMaxOutD) {
  const auto a = gaussians(0.0, 0.1, 100, 10);
  const auto b = gaussians(10.0, 0.1, 100, 11);
  const auto result = ks_test(a, b);
  EXPECT_DOUBLE_EQ(result.d, 1.0);
  EXPECT_LT(result.p_value, 1e-12);
}

TEST(KsTest, SameDistributionLargeP) {
  const auto a = gaussians(3.0, 2.0, 500, 12);
  const auto b = gaussians(3.0, 2.0, 500, 13);
  EXPECT_GT(ks_test(a, b).p_value, 0.01);
}

TEST(KsTest, EmptySampleThrows) {
  const std::vector<double> a = {1.0};
  EXPECT_THROW(ks_test(a, {}), std::invalid_argument);
}

TEST(RegularizedGammaQ, MatchesChiSquareCriticalValues) {
  // Q(dof/2, x/2) is the chi-square survival function; the classic
  // critical-value table pins it down: P(chi2_1 > 3.841) = 0.05, etc.
  EXPECT_NEAR(regularized_gamma_q(0.5, 3.841 / 2.0), 0.05, 5e-4);
  EXPECT_NEAR(regularized_gamma_q(0.5, 6.635 / 2.0), 0.01, 5e-4);
  EXPECT_NEAR(regularized_gamma_q(1.0, 5.991 / 2.0), 0.05, 5e-4);
  EXPECT_NEAR(regularized_gamma_q(2.5, 11.070 / 2.0), 0.05, 5e-4);
  EXPECT_NEAR(regularized_gamma_q(5.0, 18.307 / 2.0), 0.05, 5e-4);
  // Exact identity: Q(1, x) = exp(-x).
  EXPECT_NEAR(regularized_gamma_q(1.0, 2.0), std::exp(-2.0), 1e-12);
  // Boundaries and domain errors.
  EXPECT_DOUBLE_EQ(regularized_gamma_q(3.0, 0.0), 1.0);
  EXPECT_THROW(regularized_gamma_q(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(regularized_gamma_q(1.0, -1.0), std::invalid_argument);
}

TEST(ChiSquareGof, PerfectFitGivesPOne) {
  const std::vector<double> o = {25.0, 25.0, 25.0, 25.0};
  const auto result = chi_square_gof(o, o);
  EXPECT_DOUBLE_EQ(result.chi2, 0.0);
  EXPECT_DOUBLE_EQ(result.p_value, 1.0);
  EXPECT_EQ(result.buckets_used, 4u);
  EXPECT_DOUBLE_EQ(result.dof, 3.0);
}

TEST(ChiSquareGof, KnownFairDieExample) {
  // Classic fair-die check: 60 rolls, observed {5,8,9,8,10,20} against a
  // uniform expectation of 10 per face. chi2 = 13.4, dof = 5,
  // p = Q(2.5, 6.7) ~ 0.0199.
  const std::vector<double> observed = {5.0, 8.0, 9.0, 8.0, 10.0, 20.0};
  const std::vector<double> expected(6, 10.0);
  const auto result = chi_square_gof(observed, expected);
  EXPECT_NEAR(result.chi2, 13.4, 1e-9);
  EXPECT_DOUBLE_EQ(result.dof, 5.0);
  EXPECT_NEAR(result.p_value, 0.0199, 5e-4);
}

TEST(ChiSquareGof, RescalesUnnormalizedExpected) {
  // Expected as priors (sums to 1) against 100 observations: same verdict
  // as pre-scaled counts.
  const std::vector<double> observed = {30.0, 30.0, 40.0};
  const std::vector<double> priors = {0.25, 0.25, 0.5};
  const std::vector<double> counts = {25.0, 25.0, 50.0};
  const auto from_priors = chi_square_gof(observed, priors);
  const auto from_counts = chi_square_gof(observed, counts);
  EXPECT_NEAR(from_priors.chi2, from_counts.chi2, 1e-9);
  EXPECT_NEAR(from_priors.p_value, from_counts.p_value, 1e-9);
}

TEST(ChiSquareGof, MergesSmallExpectedBuckets) {
  // Cochran's rule: buckets with expected < 5 merge with their neighbours.
  // Expected {2,2,2,2,12} -> {(2+2+2), (2+12)} after left-to-right merging
  // with the deficient accumulator folding forward.
  const std::vector<double> observed = {1.0, 3.0, 2.0, 2.0, 12.0};
  const std::vector<double> expected = {2.0, 2.0, 2.0, 2.0, 12.0};
  const auto result = chi_square_gof(observed, expected);
  EXPECT_EQ(result.buckets_used, 2u);
  EXPECT_DOUBLE_EQ(result.dof, 1.0);
  // Merged: observed {6, 14} vs expected {6, 14} -> perfect fit.
  EXPECT_DOUBLE_EQ(result.chi2, 0.0);
  EXPECT_DOUBLE_EQ(result.p_value, 1.0);
}

TEST(ChiSquareGof, DegeneratesToPOneWhenEverythingMerges) {
  // All-tiny expectations collapse to a single bucket: nothing to test.
  const std::vector<double> observed = {1.0, 2.0, 1.0};
  const std::vector<double> expected = {1.0, 1.0, 2.0};
  const auto result = chi_square_gof(observed, expected);
  EXPECT_EQ(result.buckets_used, 1u);
  EXPECT_DOUBLE_EQ(result.p_value, 1.0);
}

TEST(ChiSquareGof, RejectsBadInput) {
  const std::vector<double> ok = {10.0, 10.0};
  EXPECT_THROW(chi_square_gof({}, {}), std::invalid_argument);
  EXPECT_THROW(chi_square_gof(ok, std::vector<double>{1.0}),
               std::invalid_argument);
  EXPECT_THROW(chi_square_gof(std::vector<double>{-1.0, 2.0}, ok),
               std::invalid_argument);
  EXPECT_THROW(chi_square_gof(ok, std::vector<double>{0.0, 0.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace amperebleed::stats
