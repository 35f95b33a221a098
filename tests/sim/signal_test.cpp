#include "amperebleed/sim/signal.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "amperebleed/util/rng.hpp"
#include "support/reference_acquisition.hpp"

namespace amperebleed::sim {
namespace {

TEST(PiecewiseConstant, EmptySignalIsInitialValueEverywhere) {
  PiecewiseConstant s(2.5);
  EXPECT_DOUBLE_EQ(s.value_at(TimeNs{0}), 2.5);
  EXPECT_DOUBLE_EQ(s.value_at(seconds(100)), 2.5);
  EXPECT_DOUBLE_EQ(s.integrate(TimeNs{0}, seconds(2)), 5.0);
}

TEST(PiecewiseConstant, ValueAtRespectsRightOpenSemantics) {
  PiecewiseConstant s(0.0);
  s.append(milliseconds(10), 1.0);
  EXPECT_DOUBLE_EQ(s.value_at(milliseconds(10) - nanoseconds(1)), 0.0);
  EXPECT_DOUBLE_EQ(s.value_at(milliseconds(10)), 1.0);
  EXPECT_DOUBLE_EQ(s.value_at(milliseconds(11)), 1.0);
}

TEST(PiecewiseConstant, AppendRequiresIncreasingTime) {
  PiecewiseConstant s(0.0);
  s.append(milliseconds(1), 1.0);
  EXPECT_THROW(s.append(milliseconds(1), 2.0), std::invalid_argument);
  EXPECT_THROW(s.append(microseconds(500), 2.0), std::invalid_argument);
}

TEST(PiecewiseConstant, CoalescesEqualValuesEvenAtSameInstant) {
  PiecewiseConstant s(1.0);
  s.append(milliseconds(1), 1.0);  // no-op: same value as tail
  EXPECT_EQ(s.segment_count(), 0u);
  s.append(milliseconds(1), 2.0);
  s.append(milliseconds(1), 2.0);  // no-op again, same time is fine
  EXPECT_EQ(s.segment_count(), 1u);
}

TEST(PiecewiseConstant, IntegrateAcrossSegments) {
  PiecewiseConstant s(1.0);
  s.append(seconds(1), 3.0);
  s.append(seconds(2), 0.0);
  // [0,1):1, [1,2):3, [2,4):0 -> 1 + 3 + 0 = 4
  EXPECT_DOUBLE_EQ(s.integrate(TimeNs{0}, seconds(4)), 4.0);
}

TEST(PiecewiseConstant, IntegratePartialWindows) {
  PiecewiseConstant s(2.0);
  s.append(seconds(1), 4.0);
  EXPECT_DOUBLE_EQ(s.integrate(milliseconds(500), milliseconds(1500)), 3.0);
}

TEST(PiecewiseConstant, IntegrateEmptyWindowIsZero) {
  PiecewiseConstant s(5.0);
  EXPECT_DOUBLE_EQ(s.integrate(seconds(1), seconds(1)), 0.0);
}

TEST(PiecewiseConstant, IntegrateRejectsReversedWindow) {
  PiecewiseConstant s(1.0);
  EXPECT_THROW(static_cast<void>(s.integrate(seconds(2), seconds(1))),
               std::invalid_argument);
}

TEST(PiecewiseConstant, MeanOverWindow) {
  PiecewiseConstant s(0.0);
  s.append(seconds(1), 10.0);
  EXPECT_DOUBLE_EQ(s.mean(TimeNs{0}, seconds(2)), 5.0);
  EXPECT_DOUBLE_EQ(s.mean(seconds(1), seconds(2)), 10.0);
}

TEST(PiecewiseConstant, MinMaxOverWindow) {
  PiecewiseConstant s(1.0);
  s.append(seconds(1), 5.0);
  s.append(seconds(2), -2.0);
  EXPECT_DOUBLE_EQ(s.min_over(TimeNs{0}, seconds(3)), -2.0);
  EXPECT_DOUBLE_EQ(s.max_over(TimeNs{0}, seconds(3)), 5.0);
  // Window before any change sees only the initial value.
  EXPECT_DOUBLE_EQ(s.max_over(TimeNs{0}, milliseconds(500)), 1.0);
}

TEST(PiecewiseConstant, SumOfSignals) {
  PiecewiseConstant a(1.0);
  a.append(seconds(1), 2.0);
  PiecewiseConstant b(10.0);
  b.append(seconds(2), 20.0);
  const PiecewiseConstant c = a + b;
  EXPECT_DOUBLE_EQ(c.value_at(TimeNs{0}), 11.0);
  EXPECT_DOUBLE_EQ(c.value_at(seconds(1)), 12.0);
  EXPECT_DOUBLE_EQ(c.value_at(seconds(2)), 22.0);
}

TEST(PiecewiseConstant, SumHandlesSimultaneousChanges) {
  PiecewiseConstant a(0.0);
  a.append(seconds(1), 1.0);
  PiecewiseConstant b(0.0);
  b.append(seconds(1), 2.0);
  const PiecewiseConstant c = a + b;
  EXPECT_DOUBLE_EQ(c.value_at(seconds(1)), 3.0);
  EXPECT_DOUBLE_EQ(c.value_at(seconds(1) - nanoseconds(1)), 0.0);
  EXPECT_EQ(c.segment_count(), 1u);
}

TEST(PiecewiseConstant, ScaleMultipliesEverything) {
  PiecewiseConstant s(1.0);
  s.append(seconds(1), 3.0);
  s.scale(2.0);
  EXPECT_DOUBLE_EQ(s.value_at(TimeNs{0}), 2.0);
  EXPECT_DOUBLE_EQ(s.value_at(seconds(1)), 6.0);
}

TEST(PiecewiseConstant, IntegralMatchesSumOfParts) {
  // Property: integrate(a,c) == integrate(a,b) + integrate(b,c).
  PiecewiseConstant s(0.5);
  s.append(milliseconds(100), 1.5);
  s.append(milliseconds(250), 0.25);
  s.append(milliseconds(900), 4.0);
  const TimeNs a{0};
  const TimeNs b = milliseconds(400);
  const TimeNs c = seconds(2);
  EXPECT_NEAR(s.integrate(a, c), s.integrate(a, b) + s.integrate(b, c), 1e-12);
}

class SignalWindowProperty : public ::testing::TestWithParam<int> {};

TEST_P(SignalWindowProperty, MeanIsBetweenMinAndMax) {
  PiecewiseConstant s(1.0);
  s.append(milliseconds(10), 3.0);
  s.append(milliseconds(20), -1.0);
  s.append(milliseconds(30), 7.0);
  const int offset_ms = GetParam();
  const TimeNs t0 = milliseconds(offset_ms);
  const TimeNs t1 = milliseconds(offset_ms + 15);
  const double m = s.mean(t0, t1);
  EXPECT_GE(m, s.min_over(t0, t1) - 1e-12);
  EXPECT_LE(m, s.max_over(t0, t1) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Windows, SignalWindowProperty,
                         ::testing::Values(0, 5, 10, 15, 22, 28, 40));

bool bit_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_segments(const PiecewiseConstant& a, const PiecewiseConstant& b) {
  if (!bit_equal(a.initial_value(), b.initial_value()) ||
      a.segment_count() != b.segment_count()) {
    return false;
  }
  for (std::size_t i = 0; i < a.segment_count(); ++i) {
    if (a.segments()[i].start != b.segments()[i].start ||
        !bit_equal(a.segments()[i].value, b.segments()[i].value)) {
      return false;
    }
  }
  return true;
}

/// A seeded signal: `n` changes from 5 us on, 1-999 ns apart. A quarter of
/// them are the value 0.25, so some appends coalesce.
PiecewiseConstant random_signal(util::Rng& rng, std::size_t n) {
  PiecewiseConstant s(rng.uniform(-1.0, 1.0));
  TimeNs t = microseconds(5);
  for (std::size_t i = 0; i < n; ++i) {
    t += nanoseconds(1 + static_cast<std::int64_t>(rng.uniform_below(999)));
    s.append(t, rng.uniform_below(4) == 0 ? 0.25 : rng.uniform(-2.0, 2.0));
  }
  return s;
}

TEST(PiecewiseConstantCursor, ForwardWindowsMatchRandomAccessBitForBit) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    util::Rng rng(seed);
    // Seed 1 has no segments at all: every window is the initial value.
    const PiecewiseConstant s = random_signal(rng, seed == 1 ? 0 : 300);
    const auto& segs = s.segments();
    const TimeNs past_last = s.last_change() + microseconds(3);

    // Window starts, in time order: before the first segment, exactly on
    // segment starts, between them, and past the last one (repeated).
    std::vector<TimeNs> starts = {TimeNs{0}, microseconds(1)};
    for (const auto& seg : segs) {
      starts.push_back(seg.start);
      if (rng.uniform_below(2) == 0) {
        starts.push_back(seg.start + nanoseconds(static_cast<std::int64_t>(
                                         rng.uniform_below(500))));
      }
    }
    starts.push_back(past_last);
    starts.push_back(past_last);
    std::sort(starts.begin(), starts.end());

    std::size_t integrate_cursor = 0;
    std::size_t mean_cursor = 0;
    for (const TimeNs t0 : starts) {
      TimeNs t1 = t0;  // case 0: a zero-length window
      switch (rng.uniform_below(4)) {
        case 1:
          t1 = t0 + nanoseconds(1 + static_cast<std::int64_t>(
                                        rng.uniform_below(4000)));
          break;
        case 2: {  // ends exactly on a later segment start
          const auto it = std::upper_bound(
              segs.begin(), segs.end(), t0,
              [](TimeNs t, const PiecewiseConstant::Segment& seg) {
                return t < seg.start;
              });
          t1 = it == segs.end() ? t0 + microseconds(1)
                                : (it + static_cast<std::ptrdiff_t>(
                                            rng.uniform_below(std::min<
                                                std::ptrdiff_t>(
                                                3, segs.end() - it))))
                                      ->start;
          break;
        }
        case 3:  // runs past the last segment
          t1 = std::max(t0, past_last);
          break;
        default:
          break;
      }
      const double forward = s.integrate(t0, t1, integrate_cursor);
      EXPECT_TRUE(bit_equal(forward, s.integrate(t0, t1)))
          << "seed " << seed << " window [" << t0.ns << ", " << t1.ns << ")";
      EXPECT_TRUE(bit_equal(forward, reference::integrate(s, t0, t1)))
          << "seed " << seed << " window [" << t0.ns << ", " << t1.ns << ")";
      EXPECT_TRUE(bit_equal(s.mean(t0, t1, mean_cursor), s.mean(t0, t1)))
          << "seed " << seed << " window [" << t0.ns << ", " << t1.ns << ")";
    }
  }
}

TEST(PiecewiseConstantCursor, BackwardWindowOrForeignCursorStaysExact) {
  util::Rng rng(99);
  const PiecewiseConstant s = random_signal(rng, 50);
  const TimeNs late = s.last_change();
  const TimeNs early = microseconds(5) + nanoseconds(700);
  std::size_t cursor = 0;
  static_cast<void>(s.integrate(late, late + microseconds(1), cursor));
  EXPECT_TRUE(bit_equal(s.integrate(early, late, cursor),
                        s.integrate(early, late)));
  std::size_t foreign = 1000;  // past this signal's segment count
  EXPECT_TRUE(bit_equal(s.integrate(early, late, foreign),
                        s.integrate(early, late)));
  EXPECT_THROW(static_cast<void>(s.integrate(late, early, cursor)),
               std::invalid_argument);
}

TEST(PiecewiseConstantOffset, MatchesSumWithConstantSegmentForSegment) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    util::Rng rng(seed);
    PiecewiseConstant s = random_signal(rng, seed == 1 ? 0 : 300);
    const double c = seed % 3 == 0 ? 0.0 : rng.uniform(-3.0, 3.0);
    const PiecewiseConstant expected = s + PiecewiseConstant(c);
    s.offset(c);
    EXPECT_TRUE(same_segments(s, expected)) << "seed " << seed;
  }
}

TEST(PiecewiseConstantOffset, DropsSegmentsWhoseSumsRoundTogether) {
  // 1e-17 != 0.0, yet 1.0 + 1e-17 == 1.0 + 0.0 in doubles: once offset by
  // 1.0, those changes are no changes, and the sum drops them too.
  PiecewiseConstant x(0.0);
  x.append(milliseconds(1), 1e-17);
  x.append(milliseconds(2), 0.0);
  x.append(milliseconds(3), 2.0);
  ASSERT_EQ(x.segment_count(), 3u);
  const PiecewiseConstant expected = x + PiecewiseConstant(1.0);
  x.offset(1.0);
  EXPECT_EQ(x.segment_count(), 1u);
  EXPECT_TRUE(same_segments(x, expected));
  EXPECT_EQ(x.value_at(milliseconds(2)), 1.0);
  EXPECT_EQ(x.value_at(milliseconds(3)), 3.0);
}

}  // namespace
}  // namespace amperebleed::sim
