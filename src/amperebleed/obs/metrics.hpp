#pragma once
// Thread-safe metrics registry for the attack pipeline: counters, gauges and
// histograms (fixed buckets + P-square streaming quantiles), with JSON and
// CSV snapshot exporters. Everything here is pure observation — recording a
// metric never touches simulation state, RNG streams or experiment outputs,
// so instrumented code stays bit-identical with observability on or off.
//
// References held from counter()/gauge()/histogram() stay valid until
// reset() — instruments are never deleted individually.

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "amperebleed/util/json.hpp"

namespace amperebleed::obs {

/// Monotonically increasing event count. Lock-free.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-value-wins instantaneous measurement. Lock-free.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Jain & Chlamtac's P-square algorithm: a constant-memory streaming
/// estimate of one quantile. Exact while fewer than 5 observations have
/// arrived; afterwards maintains 5 markers with parabolic interpolation.
class P2Quantile {
 public:
  explicit P2Quantile(double q);

  void observe(double v);
  [[nodiscard]] double estimate() const;
  [[nodiscard]] double quantile() const { return q_; }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// Current marker heights — exposed so tests can assert the P-square
  /// monotonic-marker invariant. Only the first min(count, 5) entries are
  /// meaningful; once count >= 5 the array is non-decreasing.
  [[nodiscard]] std::array<double, 5> marker_heights() const;

 private:
  double q_;
  std::uint64_t count_ = 0;
  double heights_[5] = {0, 0, 0, 0, 0};
  double positions_[5] = {1, 2, 3, 4, 5};
  double desired_[5] = {1, 1, 1, 1, 1};
  double increments_[5] = {0, 0, 0, 0, 0};
};

struct HistogramConfig {
  /// Ascending upper bounds of the fixed buckets; an implicit +inf overflow
  /// bucket is always appended.
  std::vector<double> bucket_bounds;
  /// Quantiles tracked by streaming P-square estimators.
  std::vector<double> quantiles = {0.5, 0.9, 0.99};
};

/// `count` buckets with bounds start, start*factor, start*factor^2, ...
HistogramConfig exponential_buckets(double start, double factor,
                                    std::size_t count);
/// Default bucket layout for wall-clock latencies in nanoseconds
/// (100 ns .. ~100 ms, factor 4).
HistogramConfig latency_buckets_ns();

/// Distribution of observed values: fixed-bucket counts plus streaming
/// quantile estimates, min/max/sum. Thread-safe (one mutex per histogram).
class Histogram {
 public:
  explicit Histogram(HistogramConfig config = latency_buckets_ns());

  void observe(double v);

  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] double sum() const;
  [[nodiscard]] double min() const;  // +inf when empty
  [[nodiscard]] double max() const;  // -inf when empty
  [[nodiscard]] double mean() const;  // 0 when empty
  /// Streaming estimate for the configured quantile nearest to `q`.
  [[nodiscard]] double quantile(double q) const;
  /// Per-bucket counts; the last entry is the +inf overflow bucket.
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;
  [[nodiscard]] const std::vector<double>& bucket_bounds() const {
    return config_.bucket_bounds;
  }
  [[nodiscard]] const std::vector<double>& tracked_quantiles() const {
    return config_.quantiles;
  }
  void reset();

 private:
  HistogramConfig config_;
  mutable std::mutex mu_;
  std::vector<std::uint64_t> buckets_;  // bounds.size() + 1
  std::vector<P2Quantile> estimators_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Named instruments, created on first use. Lookup is mutex-protected;
/// the returned references are stable until reset().
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `config` applies only on first creation of `name`.
  Histogram& histogram(const std::string& name,
                       const HistogramConfig& config = latency_buckets_ns());

  /// Value of a counter, or 0 if it does not exist (does not create).
  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const;
  [[nodiscard]] bool has_counter(const std::string& name) const;
  /// Histogram by name, or nullptr if it does not exist (does not create).
  /// The pointer stays valid until reset().
  [[nodiscard]] const Histogram* find_histogram(const std::string& name) const;
  /// Gauge value, or `fallback` if it does not exist (does not create).
  [[nodiscard]] double gauge_value(const std::string& name,
                                   double fallback = 0.0) const;
  /// Names of all gauges whose name starts with `prefix` (lexicographic).
  [[nodiscard]] std::vector<std::string> gauge_names_with_prefix(
      const std::string& prefix) const;

  [[nodiscard]] std::size_t instrument_count() const;

  /// Point-in-time snapshot of every instrument as a JSON document:
  /// {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  [[nodiscard]] util::Json to_json() const;

  /// The snapshot file: to_json() pretty-printed. Callers write it through
  /// util::atomic_write_file, so readers never see a torn file.
  [[nodiscard]] std::string snapshot_text() const;

  /// Drop every instrument. Invalidates previously returned references.
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace amperebleed::obs
