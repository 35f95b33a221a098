#include "amperebleed/core/online.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "amperebleed/util/rng.hpp"

namespace amperebleed::core {
namespace {

// Synthetic "model signature" traces: class c has mean level 100*c with a
// class-specific ripple.
Trace synthetic_trace(int cls, std::uint64_t seed, std::size_t len = 40) {
  util::Rng rng(seed);
  Trace t({}, sim::TimeNs{0}, sim::milliseconds(35));
  for (std::size_t i = 0; i < len; ++i) {
    const double ripple = (i % (2 + static_cast<std::size_t>(cls))) * 5.0;
    t.push(100.0 * cls + ripple + rng.gaussian(0.0, 2.0));
  }
  return t;
}

OnlineFingerprinter trained_service(std::size_t reps = 8) {
  OnlineFingerprinterConfig config;
  config.forest.n_trees = 30;
  OnlineFingerprinter service(config);
  const char* names[] = {"net-a", "net-b", "net-c"};
  for (int cls = 0; cls < 3; ++cls) {
    for (std::size_t r = 0; r < reps; ++r) {
      service.enroll(synthetic_trace(cls, cls * 100 + r), names[cls]);
    }
  }
  service.train();
  return service;
}

TEST(OnlineFingerprinter, EnrollTracksClassesAndWidth) {
  OnlineFingerprinter service;
  service.enroll(synthetic_trace(0, 1), "a");
  service.enroll(synthetic_trace(1, 2), "b");
  service.enroll(synthetic_trace(0, 3), "a");
  EXPECT_EQ(service.enrolled_traces(), 3u);
  EXPECT_EQ(service.class_names().size(), 2u);
  EXPECT_EQ(service.feature_count(), 40u);
}

TEST(OnlineFingerprinter, ClassifiesEnrolledArchitectures) {
  const auto service = trained_service();
  for (int cls = 0; cls < 3; ++cls) {
    const auto verdict = service.classify(synthetic_trace(cls, 999 + cls));
    EXPECT_TRUE(verdict.known) << cls;
    const char* names[] = {"net-a", "net-b", "net-c"};
    EXPECT_EQ(verdict.model_name, names[cls]);
    EXPECT_GT(verdict.confidence, 0.5);
  }
}

TEST(OnlineFingerprinter, RankingIsSortedAndComplete) {
  const auto service = trained_service();
  const auto verdict = service.classify(synthetic_trace(1, 4242));
  ASSERT_EQ(verdict.ranking.size(), 3u);
  EXPECT_GE(verdict.ranking[0].second, verdict.ranking[1].second);
  EXPECT_GE(verdict.ranking[1].second, verdict.ranking[2].second);
  double total = 0.0;
  for (const auto& [name, p] : verdict.ranking) total += p;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(OnlineFingerprinter, RejectsOutOfZooTraces) {
  const auto service = trained_service();
  // A signature far from every enrolled class: forest probabilities spread.
  Trace alien({}, sim::TimeNs{0}, sim::milliseconds(35));
  util::Rng rng(7);
  for (int i = 0; i < 40; ++i) {
    // Alternates wildly between class levels -> no leaf agreement.
    alien.push((i % 2 == 0 ? 0.0 : 200.0) + rng.gaussian(0.0, 30.0));
  }
  const auto verdict = service.classify(alien);
  // Either rejected outright, or accepted with conspicuously low margin.
  if (verdict.known) {
    EXPECT_LT(verdict.confidence, 0.9);
  } else {
    EXPECT_FALSE(verdict.model_name.empty());  // still reports best guess
  }
}

TEST(OnlineFingerprinter, LifecycleErrors) {
  OnlineFingerprinter service;
  EXPECT_THROW(service.classify(synthetic_trace(0, 1)), std::logic_error);
  service.enroll(synthetic_trace(0, 1), "only-one");
  EXPECT_THROW(service.train(), std::logic_error);  // single class
  service.enroll(synthetic_trace(1, 2), "second");
  service.train();
  EXPECT_TRUE(service.trained());
  EXPECT_THROW(service.train(), std::logic_error);
  EXPECT_THROW(service.enroll(synthetic_trace(0, 3), "late"),
               std::logic_error);
}

TEST(OnlineFingerprinter, FailedEnrollUnderNewNameRegistersNoClass) {
  OnlineFingerprinterConfig config;
  config.forest.n_trees = 10;
  OnlineFingerprinter service(config);
  service.enroll(synthetic_trace(0, 1, 8), "a");
  service.enroll(synthetic_trace(0, 2, 8), "a");
  // Too short for the enrolled width, and a non-finite sample.
  EXPECT_THROW(service.enroll(synthetic_trace(1, 3, 4), "ghost"),
               std::invalid_argument);
  const Trace clean = synthetic_trace(1, 4, 8);
  Trace poisoned({}, sim::TimeNs{0}, sim::milliseconds(35));
  poisoned.push(std::numeric_limits<double>::quiet_NaN());
  for (const double v : clean.values()) poisoned.push(v);
  EXPECT_THROW(service.enroll(poisoned, "nan-ghost"), std::invalid_argument);
  EXPECT_EQ(service.class_names(), std::vector<std::string>{"a"});
  EXPECT_EQ(service.enrolled_traces(), 2u);

  service.enroll(synthetic_trace(1, 5, 8), "b");
  service.enroll(synthetic_trace(1, 6, 8), "b");
  service.train();
  const auto verdict = service.classify(synthetic_trace(1, 7, 8));
  ASSERT_EQ(verdict.ranking.size(), 2u);
  for (const auto& [name, p] : verdict.ranking) {
    EXPECT_TRUE(name == "a" || name == "b") << name;
  }
}

TEST(OnlineFingerprinter, OneRealClassPlusFailedEnrollCannotTrain) {
  OnlineFingerprinter service;
  service.enroll(synthetic_trace(0, 1), "a");
  EXPECT_THROW(service.enroll(synthetic_trace(1, 2, 10), "ghost"),
               std::invalid_argument);
  EXPECT_THROW(service.train(), std::logic_error);
  // A first enroll that fails fixes no feature width either.
  OnlineFingerprinter fresh;
  Trace poisoned({}, sim::TimeNs{0}, sim::milliseconds(35));
  poisoned.push(std::numeric_limits<double>::infinity());
  EXPECT_THROW(fresh.enroll(poisoned, "x"), std::invalid_argument);
  EXPECT_EQ(fresh.feature_count(), 0u);
  EXPECT_TRUE(fresh.class_names().empty());
}

TEST(OnlineFingerprinter, ShortProbeTraceRejected) {
  const auto service = trained_service();
  const Trace stub = synthetic_trace(0, 1, 10);  // shorter than enrolled 40
  EXPECT_THROW(service.classify(stub), std::invalid_argument);
}

TEST(OnlineFingerprinter, EmptyTraceRejectedAtEnroll) {
  OnlineFingerprinter service;
  Trace empty({}, sim::TimeNs{0}, sim::milliseconds(35));
  EXPECT_THROW(service.enroll(empty, "x"), std::invalid_argument);
}

TEST(OnlineFingerprinter, ClassifyManyMatchesPerTraceClassify) {
  const auto service = trained_service();
  std::vector<Trace> probes;
  for (int cls = 0; cls < 3; ++cls) {
    probes.push_back(synthetic_trace(cls, 5000 + cls));
    probes.push_back(synthetic_trace(cls, 6000 + cls));
  }
  const auto batched = service.classify_many(probes);
  ASSERT_EQ(batched.size(), probes.size());
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const auto single = service.classify(probes[i]);
    EXPECT_EQ(batched[i].known, single.known) << i;
    EXPECT_EQ(batched[i].model_name, single.model_name) << i;
    EXPECT_EQ(batched[i].confidence, single.confidence) << i;  // exact
    EXPECT_EQ(batched[i].margin, single.margin) << i;
    EXPECT_EQ(batched[i].ranking, single.ranking) << i;
  }
}

TEST(OnlineFingerprinter, ClassifyManyEmptyBatchAndLifecycle) {
  OnlineFingerprinter untrained;
  EXPECT_THROW(untrained.classify_many(std::vector<Trace>{}),
               std::logic_error);
  const auto service = trained_service();
  EXPECT_TRUE(service.classify_many(std::vector<Trace>{}).empty());
}

TEST(OnlineFingerprinter, HighThresholdsRejectEverything) {
  OnlineFingerprinterConfig config;
  config.forest.n_trees = 20;
  config.min_confidence = 1.01;  // impossible
  OnlineFingerprinter service(config);
  for (int cls = 0; cls < 2; ++cls) {
    for (int r = 0; r < 5; ++r) {
      service.enroll(synthetic_trace(cls, cls * 10 + r),
                     cls == 0 ? "a" : "b");
    }
  }
  service.train();
  EXPECT_FALSE(service.classify(synthetic_trace(0, 77)).known);
}

}  // namespace
}  // namespace amperebleed::core
