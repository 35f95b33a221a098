#include "amperebleed/obs/drift.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "amperebleed/core/online.hpp"
#include "amperebleed/ml/dataset.hpp"
#include "amperebleed/util/rng.hpp"
#include "amperebleed/util/thread_pool.hpp"

namespace amperebleed::obs {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

/// Restores the previous global pool size even when an assertion fails.
class PoolSizeGuard {
 public:
  PoolSizeGuard() : before_(util::ThreadPool::global().size()) {}
  ~PoolSizeGuard() { util::ThreadPool::set_global_threads(before_); }

 private:
  std::size_t before_;
};

TEST(StreamingSketch, ObserveTracksCountsAndMoments) {
  StreamingSketch s(0.0, 8.0, 8);
  for (double v : {0.5, 1.5, 1.5, 7.5}) s.observe(v);
  EXPECT_EQ(s.total(), 4u);
  EXPECT_EQ(s.counts()[0], 1u);
  EXPECT_EQ(s.counts()[1], 2u);
  EXPECT_EQ(s.counts()[7], 1u);
  EXPECT_DOUBLE_EQ(s.mean(), (0.5 + 1.5 + 1.5 + 7.5) / 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.5);
  EXPECT_DOUBLE_EQ(s.max(), 7.5);
  EXPECT_GT(s.variance(), 0.0);
}

TEST(StreamingSketch, OutOfRangeValuesLandInEdgeBins) {
  StreamingSketch s(0.0, 1.0, 4);
  s.observe(-100.0);
  s.observe(100.0);
  s.observe(1.0);  // exactly hi: clamped into the last bin
  EXPECT_EQ(s.counts()[0], 1u);
  EXPECT_EQ(s.counts()[3], 2u);
  EXPECT_EQ(s.total(), 3u);
  // Moments keep the raw values (the signal that data walked out of range).
  EXPECT_DOUBLE_EQ(s.min(), -100.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
}

TEST(StreamingSketch, MergeAddsCountsAndRequiresSameLayout) {
  StreamingSketch a(0.0, 4.0, 4);
  StreamingSketch b(0.0, 4.0, 4);
  a.observe(0.5);
  b.observe(2.5);
  b.observe(3.5);
  a.merge(b);
  EXPECT_EQ(a.total(), 3u);
  EXPECT_EQ(a.counts()[0], 1u);
  EXPECT_EQ(a.counts()[2], 1u);
  EXPECT_EQ(a.counts()[3], 1u);
  EXPECT_DOUBLE_EQ(a.min(), 0.5);
  EXPECT_DOUBLE_EQ(a.max(), 3.5);

  StreamingSketch other_range(0.0, 8.0, 4);
  StreamingSketch other_bins(0.0, 4.0, 8);
  EXPECT_THROW(a.merge(other_range), std::invalid_argument);
  EXPECT_THROW(a.merge(other_bins), std::invalid_argument);
}

TEST(StreamingSketch, ClearKeepsLayoutZeroesData) {
  StreamingSketch s(-1.0, 1.0, 4);
  s.observe(0.25);
  s.clear();
  EXPECT_EQ(s.total(), 0u);
  EXPECT_EQ(s.bins(), 4u);
  EXPECT_DOUBLE_EQ(s.lo(), -1.0);
  EXPECT_DOUBLE_EQ(s.hi(), 1.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(StreamingSketch, FractionsAreSmoothedAndSumToOne) {
  StreamingSketch s(0.0, 2.0, 2);
  // Empty sketch: smoothing yields the uniform distribution.
  const auto uniform = s.fractions();
  ASSERT_EQ(uniform.size(), 2u);
  EXPECT_DOUBLE_EQ(uniform[0], 0.5);
  EXPECT_DOUBLE_EQ(uniform[1], 0.5);

  for (int i = 0; i < 3; ++i) s.observe(0.5);
  const auto skewed = s.fractions(0.5);
  // (3 + 0.5) / (3 + 2*0.5) and (0 + 0.5) / 4.
  EXPECT_DOUBLE_EQ(skewed[0], 3.5 / 4.0);
  EXPECT_DOUBLE_EQ(skewed[1], 0.5 / 4.0);
  EXPECT_DOUBLE_EQ(skewed[0] + skewed[1], 1.0);
  // Smoothing keeps every fraction strictly positive (no log(0) in PSI).
  EXPECT_GT(skewed[1], 0.0);
}

TEST(Psi, ZeroForIdenticalDistributionsPositiveForShifted) {
  StreamingSketch ref(0.0, 8.0, 8);
  StreamingSketch same(0.0, 8.0, 8);
  StreamingSketch shifted(0.0, 8.0, 8);
  for (int i = 0; i < 256; ++i) {
    const double v = static_cast<double>(i % 8) + 0.5;
    ref.observe(v);
    same.observe(v);
    shifted.observe(v + 4.0);  // half the mass clamps into the top bin
  }
  EXPECT_NEAR(population_stability_index(ref, same), 0.0, 1e-12);
  EXPECT_GT(population_stability_index(ref, shifted), 0.25);

  StreamingSketch mismatched(0.0, 4.0, 8);
  EXPECT_THROW(population_stability_index(ref, mismatched),
               std::invalid_argument);
}

ml::Dataset gaussian_dataset(std::uint64_t seed, std::size_t rows_per_class,
                             std::size_t dims = 4) {
  util::Rng rng(seed);
  ml::Dataset d(dims);
  for (int cls = 0; cls < 3; ++cls) {
    for (std::size_t r = 0; r < rows_per_class; ++r) {
      std::vector<double> row;
      row.reserve(dims);
      for (std::size_t f = 0; f < dims; ++f) {
        row.push_back(rng.gaussian(cls * 3.0, 1.0));
      }
      d.add(row, cls);
    }
  }
  return d;
}

TEST(ReferenceProfile, FromDatasetCapturesShapeAndPriors) {
  const ml::Dataset data = gaussian_dataset(0x11, 20);
  const ReferenceProfile profile = ReferenceProfile::from_dataset(data);
  EXPECT_EQ(profile.dims(), 4u);
  EXPECT_EQ(profile.rows, 60u);
  ASSERT_EQ(profile.class_counts.size(), 3u);
  for (const std::uint64_t c : profile.class_counts) EXPECT_EQ(c, 20u);
  for (std::size_t f = 0; f < profile.dims(); ++f) {
    EXPECT_EQ(profile.feature_sketches[f].total(), 60u);
    EXPECT_FALSE(profile.feature_samples[f].empty());
    EXPECT_LE(profile.feature_samples[f].size(),
              ReferenceProfile::kMaxSubsample);
  }
}

TEST(ReferenceProfile, CaptureIsDeterministic) {
  const ml::Dataset data = gaussian_dataset(0x22, 16);
  const ReferenceProfile a = ReferenceProfile::from_dataset(data);
  const ReferenceProfile b = ReferenceProfile::from_dataset(data);
  EXPECT_EQ(a, b);
}

/// A profile whose single dimension is uniform on [0, 8) with equal priors —
/// the state-machine tests drive it with hand-built windows.
ReferenceProfile uniform_profile() {
  ml::Dataset d(1);
  for (int i = 0; i < 64; ++i) {
    const double v = static_cast<double>(i % 8) + 0.5;
    d.add(std::vector<double>{v}, i % 2);
  }
  return ReferenceProfile::from_dataset(d);
}

DriftConfig tight_config() {
  DriftConfig cfg;
  cfg.enabled = true;
  cfg.name = "test_monitor";
  cfg.window = 16;
  cfg.stride = 8;
  cfg.confirm = 2;
  cfg.clear = 2;
  return cfg;
}

// Cycles through the reference support exactly, so any full window
// reproduces the enrollment distribution (PSI ~ 0 with one dimension; a
// random feed would ride the (bins-1)/window small-sample bias right up to
// the warning threshold).
void feed_matching(DriftMonitor& m, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const double v = static_cast<double>(i % 8) + 0.5;
    m.observe(std::vector<double>{v}, static_cast<int>(i % 2), 0.9);
  }
}

void feed_shifted(DriftMonitor& m, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    // Far outside the reference range: everything clamps into the top bin.
    m.observe(std::vector<double>{1000.0 + static_cast<double>(i)}, 0, 0.9);
  }
}

TEST(DriftMonitor, StaysOkOnMatchingData) {
  DriftMonitor monitor(uniform_profile(), tight_config());
  feed_matching(monitor, 128);
  const DriftReport report = monitor.report();
  EXPECT_EQ(report.state, DriftState::Ok);
  EXPECT_EQ(report.observations, 128u);
  EXPECT_GT(report.evaluations, 0u);
  EXPECT_EQ(report.warnings, 0u);
  EXPECT_EQ(report.drifts, 0u);
  EXPECT_EQ(report.first_warning_obs, -1);
}

TEST(DriftMonitor, NoEvaluationBeforeWindowFills) {
  DriftMonitor monitor(uniform_profile(), tight_config());
  feed_shifted(monitor, 15);  // window = 16
  EXPECT_EQ(monitor.report().evaluations, 0u);
  EXPECT_EQ(monitor.state(), DriftState::Ok);
}

TEST(DriftMonitor, EscalatesAfterConfirmConsecutiveBreaches) {
  DriftMonitor monitor(uniform_profile(), tight_config());
  feed_shifted(monitor, 16);  // first evaluation: breach streak 1
  EXPECT_EQ(monitor.state(), DriftState::Ok);
  feed_shifted(monitor, 8);  // second evaluation: streak 2 -> escalate
  const DriftReport report = monitor.report();
  EXPECT_NE(report.state, DriftState::Ok);
  EXPECT_EQ(report.first_warning_obs, 24);
  EXPECT_GE(report.last.psi_mean, 0.5);
}

TEST(DriftMonitor, DriftedIsStickyUntilReset) {
  DriftMonitor monitor(uniform_profile(), tight_config());
  feed_shifted(monitor, 64);
  ASSERT_EQ(monitor.state(), DriftState::Drifted);
  // Plenty of clean evaluations: Drifted never self-clears.
  feed_matching(monitor, 128);
  EXPECT_EQ(monitor.state(), DriftState::Drifted);
  monitor.reset_window();
  const DriftReport fresh = monitor.report();
  EXPECT_EQ(fresh.state, DriftState::Ok);
  EXPECT_EQ(fresh.observations, 0u);
  EXPECT_EQ(fresh.evaluations, 0u);
  EXPECT_EQ(fresh.first_drifted_obs, -1);
}

TEST(DriftMonitor, WarningClearsAfterCleanEvaluations) {
  // Thresholds where the shifted window stops at Warning (psi_drifted
  // unreachably high), so the Warning -> Ok path is exercised.
  DriftConfig cfg = tight_config();
  cfg.psi_drifted = 1e9;
  cfg.ks_alpha_drifted = 0.0;
  cfg.chi2_alpha_drifted = 0.0;
  DriftMonitor monitor(uniform_profile(), cfg);
  feed_shifted(monitor, 24);
  ASSERT_EQ(monitor.state(), DriftState::Warning);
  EXPECT_EQ(monitor.report().warnings, 1u);
  // Matching data refills the window; after `clear` clean evaluations the
  // monitor de-escalates.
  feed_matching(monitor, 64);
  EXPECT_EQ(monitor.state(), DriftState::Ok);
}

TEST(DriftMonitor, ReportJsonHasStableShape) {
  DriftMonitor monitor(uniform_profile(), tight_config());
  feed_matching(monitor, 32);
  const util::Json doc = monitor.report().to_json();
  ASSERT_TRUE(doc.is_object());
  ASSERT_NE(doc.find("name"), nullptr);
  EXPECT_EQ(doc.find("name")->as_string(), "test_monitor");
  ASSERT_NE(doc.find("state"), nullptr);
  EXPECT_EQ(doc.find("state")->as_string(), "ok");
  for (const char* key : {"observations", "evaluations", "warnings", "drifts",
                          "first_warning_obs", "first_drifted_obs"}) {
    ASSERT_NE(doc.find(key), nullptr) << key;
    EXPECT_TRUE(doc.find(key)->is_integer()) << key;
  }
  const util::Json* last = doc.find("last");
  ASSERT_NE(last, nullptr);
  for (const char* key : {"psi_mean", "psi_max", "ks_min_p", "class_p",
                          "confidence_mean"}) {
    ASSERT_NE(last->find(key), nullptr) << key;
    EXPECT_TRUE(last->find(key)->is_number()) << key;
  }
}

core::Trace drift_probe(int cls, std::uint64_t seed, double scale,
                        std::size_t len = 40) {
  util::Rng rng(seed);
  core::Trace t({}, sim::TimeNs{0}, sim::milliseconds(35));
  for (std::size_t i = 0; i < len; ++i) {
    const double ripple = (i % (2 + static_cast<std::size_t>(cls))) * 5.0;
    t.push((100.0 * cls + ripple + rng.gaussian(0.0, 2.0)) * scale);
  }
  return t;
}

core::OnlineFingerprinter drifting_service() {
  core::OnlineFingerprinterConfig config;
  config.forest.n_trees = 20;
  config.drift.enabled = true;
  config.drift.window = 12;
  config.drift.stride = 4;
  config.drift.confirm = 2;
  core::OnlineFingerprinter service(config);
  const char* names[] = {"net-a", "net-b", "net-c"};
  for (int cls = 0; cls < 3; ++cls) {
    for (std::uint64_t r = 0; r < 8; ++r) {
      service.enroll(drift_probe(cls, cls * 100 + r, 1.0), names[cls]);
    }
  }
  service.train();
  return service;
}

TEST(DriftMonitor, FingerprinterReportBitIdenticalAcrossThreadCounts) {
  PoolSizeGuard guard;
  std::vector<std::string> dumps;
  for (std::size_t threads : kThreadCounts) {
    util::ThreadPool::set_global_threads(threads);
    auto service = drifting_service();
    ASSERT_NE(service.drift_monitor(), nullptr);
    std::vector<core::Trace> probes;
    for (int i = 0; i < 24; ++i) {
      // First half in-distribution, second half amplitude-shifted.
      const double scale = i < 12 ? 1.0 : 1.6;
      probes.push_back(drift_probe(i % 3, 9000 + i, scale));
    }
    const auto verdicts = service.classify_many(probes);
    ASSERT_EQ(verdicts.size(), probes.size());
    dumps.push_back(service.drift_monitor()->report().to_json().dump());
  }
  EXPECT_EQ(dumps[0], dumps[1]);
  EXPECT_EQ(dumps[0], dumps[2]);
}

TEST(DriftMonitor, FingerprinterWithoutDriftHasNoMonitor) {
  core::OnlineFingerprinterConfig config;
  config.forest.n_trees = 10;
  core::OnlineFingerprinter service(config);
  for (int cls = 0; cls < 2; ++cls) {
    for (std::uint64_t r = 0; r < 4; ++r) {
      service.enroll(drift_probe(cls, cls * 10 + r, 1.0),
                     cls == 0 ? "a" : "b");
    }
  }
  service.train();
  EXPECT_EQ(service.drift_monitor(), nullptr);
  service.reset_drift_window();  // no-op, must not crash
  EXPECT_TRUE(service.classify(drift_probe(0, 77, 1.0)).known);
}

}  // namespace
}  // namespace amperebleed::obs
