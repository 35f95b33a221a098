// Property tests pitting the PR 9 rewritten preprocess/feature kernels
// against their retained naive references (core::reference) over
// adversarial inputs — NaN, ±Inf, denormals, constants, lengths
// 0/1/non-multiple-of-4.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "amperebleed/core/features.hpp"
#include "amperebleed/core/preprocess.hpp"
#include "amperebleed/core/preprocess_reference.hpp"
#include "amperebleed/core/trace.hpp"
#include "amperebleed/util/rng.hpp"

namespace {

using namespace amperebleed;

void expect_bitwise_equal(const std::vector<double>& got,
                          const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  if (!got.empty()) {
    // memcmp: NaN payloads and signed zeros must match too.
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(double)),
              0);
  }
}

/// Adversarial vectors: the length set covers empty, single, and lengths
/// below, at and just past multiples of 4.
std::vector<std::vector<double>> adversarial_inputs() {
  util::Rng rng(0xbad);
  std::vector<std::vector<double>> inputs;
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{4},
        std::size_t{5}, std::size_t{8}, std::size_t{13}, std::size_t{1024}}) {
    // Random
    std::vector<double> random(n);
    for (auto& v : random) v = rng.gaussian(0.0, 2.0);
    inputs.push_back(random);
    // Constant column
    inputs.push_back(std::vector<double>(n, 3.25));
    if (n == 0) continue;
    // NaN / ±Inf poisoned
    std::vector<double> poisoned = random;
    poisoned[0] = std::numeric_limits<double>::quiet_NaN();
    if (n > 2) poisoned[2] = std::numeric_limits<double>::infinity();
    if (n > 3) poisoned[3] = -std::numeric_limits<double>::infinity();
    inputs.push_back(poisoned);
    // Denormal-heavy
    std::vector<double> denormal(n);
    for (std::size_t i = 0; i < n; ++i) {
      denormal[i] = static_cast<double>(i % 5) * 5e-324;
    }
    inputs.push_back(denormal);
  }
  return inputs;
}

TEST(PreprocessSimd, StandardizeMatchesReference) {
  for (const auto& input : adversarial_inputs()) {
    auto want = input;
    core::reference::standardize(want);
    auto got = input;
    core::standardize(got);
    SCOPED_TRACE("n=" + std::to_string(input.size()));
    expect_bitwise_equal(got, want);
  }
}

TEST(PreprocessSimd, DetrendMatchesReference) {
  for (const auto& input : adversarial_inputs()) {
    auto want = input;
    core::reference::detrend(want);
    auto got = input;
    core::detrend(got);
    SCOPED_TRACE("n=" + std::to_string(input.size()));
    // Bit-identical: the fit replicates linear_fit's accumulation order
    // and the trend is applied unfused.
    expect_bitwise_equal(got, want);
  }
}

// Exact-equality regression for the O(n) rolling sliding_mean on the input
// classes where every partial sum is exactly representable: integer-grained
// samples (the hwmon 1 mA LSB domain), dyadic constants, denormals.
TEST(PreprocessSimd, SlidingMeanExactOnExactArithmeticInputs) {
  util::Rng rng(0x777);
  const auto window_strides = {
      std::pair<std::size_t, std::size_t>{1, 1},  {4, 2},  {7, 3},
      {16, 4}, {32, 32}, {12, 20}};
  std::vector<std::vector<double>> inputs;
  // Integer-grained (hwmon-shaped counts)
  std::vector<double> integers(513);
  for (auto& v : integers) {
    v = static_cast<double>(rng.uniform_below(2'000'000));
  }
  inputs.push_back(std::move(integers));
  // Dyadic constant
  inputs.push_back(std::vector<double>(257, 0.125));
  // Denormal-heavy (sums of a few denormals stay exact)
  std::vector<double> denormals(300);
  for (std::size_t i = 0; i < denormals.size(); ++i) {
    denormals[i] = static_cast<double>(i % 3) * 5e-324;
  }
  inputs.push_back(std::move(denormals));

  for (const auto& xs : inputs) {
    for (const auto& [window, stride] : window_strides) {
      SCOPED_TRACE("n=" + std::to_string(xs.size()) +
                   " window=" + std::to_string(window) +
                   " stride=" + std::to_string(stride));
      expect_bitwise_equal(core::sliding_mean(xs, window, stride),
                           core::reference::sliding_mean(xs, window, stride));
    }
  }
}

// Arbitrary doubles: rolling and naive folds may round differently between
// re-anchor points, but only in the last ulps.
TEST(PreprocessSimd, SlidingMeanCloseOnArbitraryInputs) {
  util::Rng rng(0xabc);
  std::vector<double> xs(1000);
  for (auto& v : xs) v = rng.gaussian(1.0, 0.3);
  for (const std::size_t window : {std::size_t{4}, std::size_t{32}}) {
    const auto got = core::sliding_mean(xs, window, 2);
    const auto want = core::reference::sliding_mean(xs, window, 2);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i], want[i], 1e-12) << "i=" << i;
    }
  }
}

TEST(PreprocessSimd, SlidingMeanEdgeShapes) {
  const std::vector<double> empty;
  EXPECT_TRUE(core::sliding_mean(empty, 4, 2).empty());
  const std::vector<double> one{2.5};
  expect_bitwise_equal(core::sliding_mean(one, 1, 1),
                       core::reference::sliding_mean(one, 1, 1));
  EXPECT_TRUE(core::sliding_mean(one, 2, 1).empty());
  // window == length
  const std::vector<double> four{1.0, 2.0, 3.0, 4.0};
  expect_bitwise_equal(core::sliding_mean(four, 4, 1),
                       core::reference::sliding_mean(four, 4, 1));
  EXPECT_THROW(core::sliding_mean(four, 0, 1), std::invalid_argument);
  EXPECT_THROW(core::sliding_mean(four, 2, 0), std::invalid_argument);
}

TEST(PreprocessSimd, FillGapsMatchesReferenceAllPolicies) {
  util::Rng rng(0xf17);
  for (const std::size_t n : {std::size_t{1}, std::size_t{5}, std::size_t{8},
                              std::size_t{257}}) {
    std::vector<double> values(n);
    for (auto& v : values) v = rng.gaussian(0.0, 1.0);
    if (n > 2) values[1] = std::numeric_limits<double>::quiet_NaN();
    std::vector<std::vector<std::uint8_t>> masks;
    masks.push_back({});                                  // gapless
    masks.push_back(std::vector<std::uint8_t>(n, 1));     // all valid
    masks.push_back(std::vector<std::uint8_t>(n, 0));     // all invalid
    std::vector<std::uint8_t> alternating(n, 1);
    for (std::size_t i = 0; i < n; i += 2) alternating[i] = 0;
    masks.push_back(alternating);                         // leading gap too
    std::vector<std::uint8_t> trailing(n, 1);
    trailing[n - 1] = 0;
    masks.push_back(trailing);
    for (const auto& mask : masks) {
      for (const core::GapPolicy policy : core::kAllGapPolicies) {
        SCOPED_TRACE("n=" + std::to_string(n) + " mask_size=" +
                     std::to_string(mask.size()) + " policy=" +
                     std::string(core::gap_policy_name(policy)));
        expect_bitwise_equal(core::fill_gaps(values, mask, policy),
                             core::reference::fill_gaps(values, mask, policy));
      }
    }
  }
}

TEST(PreprocessSimd, FillGapsTraceOverloadGaplessFastPath) {
  core::Trace trace(core::Channel{}, sim::TimeNs{0}, sim::microseconds(100));
  for (int i = 0; i < 10; ++i) trace.push(1.0 + i * 0.5);
  ASSERT_TRUE(trace.validity().empty());
  const auto filled = core::fill_gaps(trace, core::GapPolicy::HoldLast);
  ASSERT_EQ(filled.size(), trace.size());
  for (std::size_t i = 0; i < filled.size(); ++i) {
    EXPECT_EQ(filled[i], trace.values()[i]);
  }
}

TEST(PreprocessSimd, BestAlignmentShiftMatchesReference) {
  util::Rng rng(0xa11);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<double> ref(256 + static_cast<std::size_t>(trial) * 7);
    for (auto& v : ref) v = rng.gaussian(0.0, 1.0);
    const int true_lag = static_cast<int>(rng.uniform_below(41)) - 20;
    const auto probe = core::shift(ref, true_lag);
    const int got = core::best_alignment_shift(ref, probe, 24);
    const int want = core::reference::best_alignment_shift(ref, probe, 24);
    EXPECT_EQ(got, want) << "trial=" << trial << " true_lag=" << true_lag;
    EXPECT_EQ(got, true_lag) << "trial=" << trial;
  }
  // Degenerate shapes fall back to 0 exactly like the reference.
  const std::vector<double> tiny{1.0, 2.0, 3.0};
  EXPECT_EQ(core::best_alignment_shift(tiny, tiny, 8), 0);
  const std::vector<double> flat(64, 1.0);
  EXPECT_EQ(core::best_alignment_shift(flat, flat, 8),
            core::reference::best_alignment_shift(flat, flat, 8));
}

}  // namespace
