#include "amperebleed/obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "amperebleed/obs/obs.hpp"
#include "amperebleed/util/fs.hpp"
#include "amperebleed/util/json.hpp"
#include "amperebleed/util/rng.hpp"
#include "support/temp_path.hpp"

namespace amperebleed::obs {
namespace {

TEST(Counter, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, ConcurrentIncrementsAreLossless) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20'000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c]() {
      for (int i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Gauge, SetAndConcurrentAdd) {
  Gauge g;
  g.set(5.0);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&g]() {
      for (int i = 0; i < kPerThread; ++i) g.add(1.0);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_DOUBLE_EQ(g.value(), 5.0 + kThreads * kPerThread);
}

TEST(P2Quantile, ExactForSmallSamples) {
  P2Quantile q(0.5);
  for (double v : {5.0, 1.0, 3.0}) q.observe(v);
  EXPECT_DOUBLE_EQ(q.estimate(), 3.0);  // exact median of {1,3,5}
}

TEST(P2Quantile, TracksUniformQuantilesWithinTolerance) {
  // Compare the streaming estimate against the exact empirical quantile on
  // a deterministic uniform stream.
  util::Rng rng(0x9e2);
  std::vector<double> values;
  values.reserve(20'000);
  P2Quantile p50(0.5);
  P2Quantile p90(0.9);
  P2Quantile p99(0.99);
  for (int i = 0; i < 20'000; ++i) {
    const double v = rng.uniform(0.0, 1000.0);
    values.push_back(v);
    p50.observe(v);
    p90.observe(v);
    p99.observe(v);
  }
  std::sort(values.begin(), values.end());
  const auto exact = [&](double q) {
    return values[static_cast<std::size_t>(q * (values.size() - 1))];
  };
  // P-square on a smooth distribution stays within a few percent of range.
  EXPECT_NEAR(p50.estimate(), exact(0.5), 20.0);
  EXPECT_NEAR(p90.estimate(), exact(0.9), 20.0);
  EXPECT_NEAR(p99.estimate(), exact(0.99), 20.0);
}

TEST(Histogram, BucketCountsAndSummary) {
  HistogramConfig config;
  config.bucket_bounds = {1.0, 10.0, 100.0};
  Histogram h(config);
  for (double v : {0.5, 5.0, 50.0, 500.0, 0.25}) h.observe(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 555.75);
  EXPECT_DOUBLE_EQ(h.min(), 0.25);
  EXPECT_DOUBLE_EQ(h.max(), 500.0);
  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(buckets[0], 2u);      // <= 1
  EXPECT_EQ(buckets[1], 1u);      // <= 10
  EXPECT_EQ(buckets[2], 1u);      // <= 100
  EXPECT_EQ(buckets[3], 1u);      // overflow
}

TEST(Histogram, EmptySummaries) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_TRUE(std::isinf(h.min()));
  EXPECT_TRUE(std::isinf(h.max()));
}

TEST(Histogram, ExponentialBucketsLayout) {
  const auto config = exponential_buckets(100.0, 4.0, 3);
  ASSERT_EQ(config.bucket_bounds.size(), 3u);
  EXPECT_DOUBLE_EQ(config.bucket_bounds[0], 100.0);
  EXPECT_DOUBLE_EQ(config.bucket_bounds[1], 400.0);
  EXPECT_DOUBLE_EQ(config.bucket_bounds[2], 1600.0);
}

TEST(MetricsRegistry, StableReferencesAndLookup) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  EXPECT_EQ(reg.counter_value("x"), 3u);
  EXPECT_EQ(reg.counter_value("missing"), 0u);
  EXPECT_TRUE(reg.has_counter("x"));
  EXPECT_FALSE(reg.has_counter("missing"));
}

TEST(MetricsRegistry, ConcurrentRegistrationAndIncrement) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg]() {
      for (int i = 0; i < kPerThread; ++i) {
        reg.counter("shared").inc();
        reg.histogram("lat").observe(static_cast<double>(i));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(reg.counter_value("shared"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(reg.histogram("lat").count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsRegistry, JsonSnapshotParsesBack) {
  MetricsRegistry reg;
  reg.counter("reads").inc(7);
  reg.gauge("temp").set(42.5);
  reg.histogram("lat").observe(150.0);
  const std::string path = test::temp_path("metrics.json");
  util::atomic_write_file(path, reg.snapshot_text(path));
  EXPECT_FALSE(util::path_exists(path + ".tmp"));
  const auto parsed = util::Json::parse(util::read_file(path));
  ASSERT_TRUE(parsed.is_object());
  const auto* counters = parsed.find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->find("reads"), nullptr);
  EXPECT_EQ(counters->find("reads")->as_integer(), 7);
  const auto* hist = parsed.find("histograms");
  ASSERT_NE(hist, nullptr);
  const auto* lat = hist->find("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->find("count")->as_integer(), 1);
  const auto* buckets = lat->find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_TRUE(buckets->is_array());
  ASSERT_GT(buckets->size(), 0u);
  EXPECT_NE(buckets->at(0).find("le"), nullptr);
  // A failed write throws rather than reporting success with no file.
  const std::string bad = test::temp_path("no-such-dir") + "/metrics.json";
  EXPECT_THROW(util::atomic_write_file(bad, reg.snapshot_text(bad)),
               std::runtime_error);
}

TEST(MetricsRegistry, CsvSnapshotHasHeaderAndRows) {
  MetricsRegistry reg;
  reg.counter("reads").inc(2);
  const std::string path = test::temp_path("metrics.csv");
  util::atomic_write_file(path, reg.snapshot_text(path));
  EXPECT_FALSE(util::path_exists(path + ".tmp"));
  const std::string csv = util::read_file(path);
  EXPECT_NE(csv.find("kind,name,field,value"), std::string::npos);
  EXPECT_NE(csv.find("counter,reads,value,2"), std::string::npos);
}

TEST(MetricsRegistry, ResetClearsEverything) {
  MetricsRegistry reg;
  reg.counter("x").inc();
  reg.reset();
  EXPECT_FALSE(reg.has_counter("x"));
  EXPECT_EQ(reg.instrument_count(), 0u);
}

TEST(ObsContext, DisabledByDefaultAndHelpersNoOp) {
  shutdown();
  EXPECT_FALSE(metrics_enabled());
  EXPECT_FALSE(tracing_enabled());
  EXPECT_FALSE(audit_enabled());
  count("never");  // must not create anything while disabled
  EXPECT_FALSE(metrics().has_counter("never"));
}

TEST(ObsContext, InitEnablesAndShutdownClears) {
  init();
  EXPECT_TRUE(metrics_enabled());
  count("obs_ctx_test", 4);
  EXPECT_EQ(metrics().counter_value("obs_ctx_test"), 4u);
  shutdown();
  EXPECT_FALSE(metrics_enabled());
  EXPECT_FALSE(metrics().has_counter("obs_ctx_test"));
}

TEST(ObsContext, SubLayerSwitches) {
  ObsConfig config;
  config.enabled = true;
  config.tracing = false;
  config.audit = false;
  init(config);
  EXPECT_TRUE(metrics_enabled());
  EXPECT_FALSE(tracing_enabled());
  EXPECT_FALSE(audit_enabled());
  shutdown();
}

}  // namespace
}  // namespace amperebleed::obs
