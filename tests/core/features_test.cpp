#include "amperebleed/core/features.hpp"

#include <gtest/gtest.h>

namespace amperebleed::core {
namespace {

TEST(SamplesForDuration, FloorsPartialSamples) {
  EXPECT_EQ(samples_for_duration(sim::seconds(5), sim::milliseconds(35)),
            142u);
  EXPECT_EQ(samples_for_duration(sim::seconds(1), sim::milliseconds(35)),
            28u);
  EXPECT_EQ(samples_for_duration(sim::milliseconds(34), sim::milliseconds(35)),
            0u);
  EXPECT_EQ(samples_for_duration(sim::seconds(1), sim::TimeNs{0}), 0u);
}

TEST(AddTrace, AppendsPrefixWithLabel) {
  Trace t({}, sim::TimeNs{0}, sim::milliseconds(1));
  for (int i = 0; i < 5; ++i) t.push(i * 10.0);
  ml::Dataset d(3);
  add_trace(d, t, 4, 3);
  EXPECT_EQ(d.size(), 1u);
  EXPECT_EQ(d.label(0), 4);
  EXPECT_DOUBLE_EQ(d.row(0)[2], 20.0);
}

TEST(AddTrace, GapAwareVariantReconstructsBeforeTruncation) {
  Trace t({}, sim::TimeNs{0}, sim::milliseconds(1));
  t.push(10.0);
  t.push_gap();
  t.push(30.0);
  t.push(40.0);
  ml::Dataset d(3);
  add_trace(d, t, 2, 3, GapPolicy::LinearInterpolate);
  ASSERT_EQ(d.size(), 1u);
  EXPECT_DOUBLE_EQ(d.row(0)[0], 10.0);
  EXPECT_DOUBLE_EQ(d.row(0)[1], 20.0);  // reconstructed, not the 0.0 slot
  EXPECT_DOUBLE_EQ(d.row(0)[2], 30.0);
  // Fixed-length feature vectors cannot drop samples.
  EXPECT_THROW(add_trace(d, t, 2, 3, GapPolicy::Drop), std::invalid_argument);
}

TEST(AddTrace, GapAwareVariantMatchesPlainPathOnGaplessTraces) {
  Trace t({}, sim::TimeNs{0}, sim::milliseconds(1));
  for (int i = 0; i < 4; ++i) t.push(i * 10.0);
  ml::Dataset plain(3);
  add_trace(plain, t, 1, 3);
  ml::Dataset gap_aware(3);
  add_trace(gap_aware, t, 1, 3, GapPolicy::HoldLast);
  ASSERT_EQ(plain.size(), gap_aware.size());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(plain.row(0)[i], gap_aware.row(0)[i]);
  }
}

TEST(BuildDataset, LabelsFollowGroupOrder) {
  std::vector<std::vector<Trace>> groups;
  for (int label = 0; label < 3; ++label) {
    std::vector<Trace> traces;
    for (int rep = 0; rep < 2; ++rep) {
      Trace t({}, sim::TimeNs{0}, sim::milliseconds(1));
      t.push(label * 100.0);
      t.push(label * 100.0 + 1.0);
      traces.push_back(std::move(t));
    }
    groups.push_back(std::move(traces));
  }
  const ml::Dataset d = build_dataset(groups, 2);
  EXPECT_EQ(d.size(), 6u);
  EXPECT_EQ(d.class_count(), 3);
  EXPECT_EQ(d.label(0), 0);
  EXPECT_EQ(d.label(5), 2);
  EXPECT_DOUBLE_EQ(d.row(4)[0], 200.0);
}

TEST(BuildDataset, ShortTraceThrows) {
  std::vector<std::vector<Trace>> groups(1);
  Trace t({}, sim::TimeNs{0}, sim::milliseconds(1));
  t.push(1.0);
  groups[0].push_back(std::move(t));
  EXPECT_THROW(build_dataset(groups, 2), std::invalid_argument);
}

}  // namespace
}  // namespace amperebleed::core
