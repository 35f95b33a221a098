#include "amperebleed/obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "amperebleed/util/strings.hpp"

namespace amperebleed::obs {

// ---------------------------------------------------------------------------
// P2Quantile

P2Quantile::P2Quantile(double q) : q_(q) {
  if (q < 0.0 || q > 1.0) {
    throw std::invalid_argument("P2Quantile: q not in [0,1]");
  }
  desired_[0] = 1;
  desired_[1] = 1 + 2 * q;
  desired_[2] = 1 + 4 * q;
  desired_[3] = 3 + 2 * q;
  desired_[4] = 5;
  increments_[0] = 0;
  increments_[1] = q / 2;
  increments_[2] = q;
  increments_[3] = (1 + q) / 2;
  increments_[4] = 1;
}

void P2Quantile::observe(double v) {
  if (count_ < 5) {
    heights_[count_] = v;
    ++count_;
    if (count_ == 5) std::sort(heights_, heights_ + 5);
    return;
  }

  // Locate the cell containing v and update the extremes.
  std::size_t k;
  if (v < heights_[0]) {
    heights_[0] = v;
    k = 0;
  } else if (v >= heights_[4]) {
    heights_[4] = v;
    k = 3;
  } else {
    k = 0;
    while (k < 3 && v >= heights_[k + 1]) ++k;
  }

  for (std::size_t i = k + 1; i < 5; ++i) positions_[i] += 1;
  for (std::size_t i = 0; i < 5; ++i) desired_[i] += increments_[i];
  ++count_;

  // Adjust the three interior markers towards their desired positions.
  for (std::size_t i = 1; i <= 3; ++i) {
    const double d = desired_[i] - positions_[i];
    const double below = positions_[i] - positions_[i - 1];
    const double above = positions_[i + 1] - positions_[i];
    if ((d >= 1 && above > 1) || (d <= -1 && below > 1)) {
      const double s = d >= 0 ? 1.0 : -1.0;
      // Piecewise-parabolic (P^2) estimate of the new marker height.
      const double hp = heights_[i + 1];
      const double hm = heights_[i - 1];
      const double h = heights_[i];
      double candidate =
          h + s / (above + below) *
                  ((below + s) * (hp - h) / above + (above - s) * (h - hm) / below);
      if (candidate <= hm || candidate >= hp) {
        // Fall back to linear interpolation towards the neighbour.
        candidate = s > 0 ? h + (hp - h) / above : h - (hm - h) / -below;
      }
      heights_[i] = candidate;
      positions_[i] += s;
    }
  }
}

std::array<double, 5> P2Quantile::marker_heights() const {
  std::array<double, 5> out{};
  std::copy(heights_, heights_ + 5, out.begin());
  return out;
}

double P2Quantile::estimate() const {
  if (count_ == 0) return 0.0;
  if (count_ < 5) {
    // Exact small-sample quantile (nearest-rank on the sorted prefix).
    double sorted[5];
    std::copy(heights_, heights_ + count_, sorted);
    std::sort(sorted, sorted + count_);
    const double rank = q_ * static_cast<double>(count_ - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, static_cast<std::size_t>(count_ - 1));
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
  }
  return heights_[2];
}

// ---------------------------------------------------------------------------
// Histogram

HistogramConfig exponential_buckets(double start, double factor,
                                    std::size_t count) {
  if (start <= 0.0 || factor <= 1.0) {
    throw std::invalid_argument("exponential_buckets: need start>0, factor>1");
  }
  HistogramConfig config;
  config.bucket_bounds.reserve(count);
  double bound = start;
  for (std::size_t i = 0; i < count; ++i) {
    config.bucket_bounds.push_back(bound);
    bound *= factor;
  }
  return config;
}

HistogramConfig latency_buckets_ns() {
  return exponential_buckets(100.0, 4.0, 10);  // 100 ns .. ~26 ms, then +inf
}

Histogram::Histogram(HistogramConfig config) : config_(std::move(config)) {
  if (!std::is_sorted(config_.bucket_bounds.begin(),
                      config_.bucket_bounds.end())) {
    throw std::invalid_argument("Histogram: bucket bounds not ascending");
  }
  buckets_.assign(config_.bucket_bounds.size() + 1, 0);
  estimators_.reserve(config_.quantiles.size());
  for (double q : config_.quantiles) estimators_.emplace_back(q);
  min_ = std::numeric_limits<double>::infinity();
  max_ = -std::numeric_limits<double>::infinity();
}

void Histogram::observe(double v) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = std::upper_bound(config_.bucket_bounds.begin(),
                                   config_.bucket_bounds.end(), v);
  buckets_[static_cast<std::size_t>(
      std::distance(config_.bucket_bounds.begin(), it))] += 1;
  for (auto& e : estimators_) e.observe(v);
  ++count_;
  sum_ += v;
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
}

std::uint64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

double Histogram::sum() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}

double Histogram::min() const {
  std::lock_guard<std::mutex> lock(mu_);
  return min_;
}

double Histogram::max() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_;
}

double Histogram::mean() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double Histogram::quantile(double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (estimators_.empty()) return 0.0;
  const P2Quantile* best = &estimators_.front();
  for (const auto& e : estimators_) {
    if (std::abs(e.quantile() - q) < std::abs(best->quantile() - q)) best = &e;
  }
  return best->estimate();
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return buckets_;
}

void Histogram::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  std::fill(buckets_.begin(), buckets_.end(), 0);
  estimators_.clear();
  for (double q : config_.quantiles) estimators_.emplace_back(q);
  count_ = 0;
  sum_ = 0.0;
  min_ = std::numeric_limits<double>::infinity();
  max_ = -std::numeric_limits<double>::infinity();
}

// ---------------------------------------------------------------------------
// MetricsRegistry

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      const HistogramConfig& config) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(config);
  return *slot;
}

std::uint64_t MetricsRegistry::counter_value(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

bool MetricsRegistry::has_counter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.count(name) != 0;
}

const Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

double MetricsRegistry::gauge_value(const std::string& name,
                                    double fallback) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? fallback : it->second->value();
}

std::vector<std::string> MetricsRegistry::gauge_names_with_prefix(
    const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  for (auto it = gauges_.lower_bound(prefix); it != gauges_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    names.push_back(it->first);
  }
  return names;
}

std::size_t MetricsRegistry::instrument_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

util::Json MetricsRegistry::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  auto root = util::Json::object();

  auto counters = util::Json::object();
  for (const auto& [name, c] : counters_) {
    counters.set(name,
                 util::Json::integer(static_cast<std::int64_t>(c->value())));
  }
  root.set("counters", std::move(counters));

  auto gauges = util::Json::object();
  for (const auto& [name, g] : gauges_) {
    gauges.set(name, util::Json::number(g->value()));
  }
  root.set("gauges", std::move(gauges));

  auto histograms = util::Json::object();
  for (const auto& [name, h] : histograms_) {
    auto entry = util::Json::object();
    const auto n = h->count();
    entry.set("count", util::Json::integer(static_cast<std::int64_t>(n)));
    entry.set("sum", util::Json::number(h->sum()));
    entry.set("mean", util::Json::number(h->mean()));
    if (n > 0) {
      entry.set("min", util::Json::number(h->min()));
      entry.set("max", util::Json::number(h->max()));
    }
    for (double q : h->tracked_quantiles()) {
      entry.set(util::format("p%g", q * 100.0),
                util::Json::number(h->quantile(q)));
    }
    auto buckets = util::Json::array();
    const auto counts = h->bucket_counts();
    const auto& bounds = h->bucket_bounds();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      auto b = util::Json::object();
      if (i < bounds.size()) {
        b.set("le", util::Json::number(bounds[i]));
      } else {
        b.set("le", util::Json::string("inf"));
      }
      b.set("count",
            util::Json::integer(static_cast<std::int64_t>(counts[i])));
      buckets.push_back(std::move(b));
    }
    entry.set("buckets", std::move(buckets));
    histograms.set(name, std::move(entry));
  }
  root.set("histograms", std::move(histograms));
  return root;
}

std::string MetricsRegistry::snapshot_text() const {
  return to_json().dump(2) + "\n";
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

}  // namespace amperebleed::obs
