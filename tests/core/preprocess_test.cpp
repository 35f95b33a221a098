#include "amperebleed/core/preprocess.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "amperebleed/core/trace.hpp"

namespace amperebleed::core {
namespace {

// ---------------------------------------------------------------------------
// Gap reconstruction (resilient acquisition records failed reads as gaps).

TEST(GapPolicyNames, RoundTrip) {
  for (const GapPolicy p : kAllGapPolicies) {
    const auto back = gap_policy_from_name(gap_policy_name(p));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, p);
  }
  EXPECT_FALSE(gap_policy_from_name("no-such-policy").has_value());
}

TEST(FillGaps, EmptyMaskMeansAllValid) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  for (const GapPolicy p : kAllGapPolicies) {
    EXPECT_EQ(fill_gaps(xs, {}, p), xs) << gap_policy_name(p);
  }
}

TEST(FillGaps, MaskLengthMismatchThrows) {
  const std::vector<double> xs = {1.0, 2.0};
  const std::vector<std::uint8_t> mask = {1, 1, 1};
  EXPECT_THROW(fill_gaps(xs, mask, GapPolicy::HoldLast),
               std::invalid_argument);
}

TEST(FillGaps, HoldLastForwardFillsAndBackfillsLeadingGaps) {
  const std::vector<double> xs = {0.0, 0.0, 5.0, 0.0, 0.0, 8.0, 0.0};
  const std::vector<std::uint8_t> mask = {0, 0, 1, 0, 0, 1, 0};
  const auto out = fill_gaps(xs, mask, GapPolicy::HoldLast);
  const std::vector<double> want = {5.0, 5.0, 5.0, 5.0, 5.0, 8.0, 8.0};
  EXPECT_EQ(out, want);
}

TEST(FillGaps, LinearInterpolatesBetweenValidNeighbours) {
  const std::vector<double> xs = {2.0, 0.0, 0.0, 8.0, 0.0};
  const std::vector<std::uint8_t> mask = {1, 0, 0, 1, 0};
  const auto out = fill_gaps(xs, mask, GapPolicy::LinearInterpolate);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_DOUBLE_EQ(out[0], 2.0);
  EXPECT_DOUBLE_EQ(out[1], 4.0);
  EXPECT_DOUBLE_EQ(out[2], 6.0);
  EXPECT_DOUBLE_EQ(out[3], 8.0);
  EXPECT_DOUBLE_EQ(out[4], 8.0);  // trailing gap clamps
}

TEST(FillGaps, LinearClampsLeadingGaps) {
  const std::vector<double> xs = {0.0, 0.0, 3.0, 4.0};
  const std::vector<std::uint8_t> mask = {0, 0, 1, 1};
  const auto out = fill_gaps(xs, mask, GapPolicy::LinearInterpolate);
  const std::vector<double> want = {3.0, 3.0, 3.0, 4.0};
  EXPECT_EQ(out, want);
}

TEST(FillGaps, DropRemovesInvalidSamples) {
  const std::vector<double> xs = {1.0, 0.0, 3.0, 0.0};
  const std::vector<std::uint8_t> mask = {1, 0, 1, 0};
  const auto out = fill_gaps(xs, mask, GapPolicy::Drop);
  const std::vector<double> want = {1.0, 3.0};
  EXPECT_EQ(out, want);
}

TEST(FillGaps, AllInvalidReconstructsToZerosOrEmpty) {
  const std::vector<double> xs = {7.0, 7.0};
  const std::vector<std::uint8_t> mask = {0, 0};
  EXPECT_EQ(fill_gaps(xs, mask, GapPolicy::HoldLast),
            (std::vector<double>{0.0, 0.0}));
  EXPECT_EQ(fill_gaps(xs, mask, GapPolicy::LinearInterpolate),
            (std::vector<double>{0.0, 0.0}));
  EXPECT_TRUE(fill_gaps(xs, mask, GapPolicy::Drop).empty());
}

TEST(FillGaps, TraceOverloadUsesItsMask) {
  Trace t({}, sim::TimeNs{0}, sim::milliseconds(1));
  t.push(10.0);
  t.push_gap();
  t.push(30.0);
  const auto held = fill_gaps(t, GapPolicy::HoldLast);
  EXPECT_EQ(held, (std::vector<double>{10.0, 10.0, 30.0}));
  const auto lerp = fill_gaps(t, GapPolicy::LinearInterpolate);
  EXPECT_EQ(lerp, (std::vector<double>{10.0, 20.0, 30.0}));
}

}  // namespace
}  // namespace amperebleed::core
