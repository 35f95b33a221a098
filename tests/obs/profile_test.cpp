#include "amperebleed/obs/profile.hpp"

#include <gtest/gtest.h>

#include <string>

#include "amperebleed/obs/obs.hpp"

namespace amperebleed::obs {
namespace {

TraceEvent wall_span(std::uint64_t span_id, std::uint64_t parent_id,
                     const std::string& name, double dur_us) {
  TraceEvent e;
  e.name = name;
  e.phase = 'X';
  e.clock = SpanClock::Wall;
  e.trace_id = 1;
  e.span_id = span_id;
  e.parent_id = parent_id;
  e.dur_us = dur_us;
  return e;
}

TEST(StageName, CoversEveryStage) {
  EXPECT_STREQ(stage_name(Stage::Acquire), "acquire");
  EXPECT_STREQ(stage_name(Stage::Preprocess), "preprocess");
  EXPECT_STREQ(stage_name(Stage::Features), "features");
  EXPECT_STREQ(stage_name(Stage::Classify), "classify");
}

TEST(CollapsedStacks, FoldsBySelfTime) {
  SpanTracer tracer;
  tracer.add_event(wall_span(1, 0, "root", 100.0));
  tracer.add_event(wall_span(2, 1, "child", 40.0));
  tracer.add_event(wall_span(3, 2, "grand", 10.0));
  EXPECT_EQ(collapsed_stacks_text(tracer),
            "root 60\n"
            "root;child 30\n"
            "root;child;grand 10\n");
}

TEST(CollapsedStacks, SiblingsMergeIntoOneLine) {
  SpanTracer tracer;
  tracer.add_event(wall_span(1, 0, "root", 100.0));
  tracer.add_event(wall_span(2, 1, "task", 30.0));
  tracer.add_event(wall_span(3, 1, "task", 25.0));
  EXPECT_EQ(collapsed_stacks_text(tracer),
            "root 45\n"
            "root;task 55\n");
}

TEST(CollapsedStacks, ParallelChildrenClampParentSelfAtZero) {
  // Two pool tasks overlapping in wall time can sum past the parent's own
  // duration; the parent's self time clamps at zero instead of going
  // negative.
  SpanTracer tracer;
  tracer.add_event(wall_span(1, 0, "root", 50.0));
  tracer.add_event(wall_span(2, 1, "task", 40.0));
  tracer.add_event(wall_span(3, 1, "task", 40.0));
  EXPECT_EQ(collapsed_stacks_text(tracer),
            "root 0\n"
            "root;task 80\n");
}

TEST(CollapsedStacks, OrphanSpansStartTheirOwnStack) {
  SpanTracer tracer;
  tracer.add_event(wall_span(2, 99, "orphan", 5.0));  // parent never finished
  EXPECT_EQ(collapsed_stacks_text(tracer), "orphan 5\n");
}

TEST(CollapsedStacks, IgnoresFlowAndVirtualEvents) {
  SpanTracer tracer;
  tracer.add_event(wall_span(1, 0, "root", 10.0));
  tracer.add_flow_event('s', 7, "parallel_for");
  tracer.add_flow_event('f', 7, "parallel_for");
  tracer.add_virtual_span("sim", "", sim::TimeNs{0}, sim::microseconds(5));
  EXPECT_EQ(collapsed_stacks_text(tracer), "root 10\n");
}

TEST(StageSpan, InertWhenObsDisabled) {
  shutdown();
  {
    StageSpan stage(Stage::Acquire);
    EXPECT_FALSE(stage.span().active());
  }
  EXPECT_EQ(metrics().find_histogram("pipeline.stage.acquire_ns"), nullptr);
}

TEST(StageSpan, RecordsTimelineHistogramAndSpan) {
  init();
  reset_data();
  { StageSpan stage(Stage::Preprocess); }
  const auto* h = metrics().find_histogram("pipeline.stage.preprocess_ns");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 1u);
  EXPECT_GE(h->sum(), 0.0);
  EXPECT_EQ(h->quantile(0.5), h->sum());  // one observation is its own median
  std::size_t spans = 0;
  for (const auto& e : tracer().events_snapshot()) {
    if (e.name == "pipeline.preprocess") ++spans;
  }
  EXPECT_EQ(spans, 1u);
  shutdown();
}

TEST(StageSpan, ResetDataClearsTimeline) {
  init();
  { StageSpan stage(Stage::Classify); }
  const auto* h = metrics().find_histogram("pipeline.stage.classify_ns");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 1u);
  reset_data();
  EXPECT_EQ(metrics().find_histogram("pipeline.stage.classify_ns"), nullptr);
  shutdown();
}

}  // namespace
}  // namespace amperebleed::obs
