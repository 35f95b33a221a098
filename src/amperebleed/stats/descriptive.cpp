#include "amperebleed/stats/descriptive.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace amperebleed::stats {

Summary summarize(std::span<const double> xs) {
  Summary s;
  if (xs.empty()) return s;
  s.count = xs.size();
  s.min = xs[0];
  s.max = xs[0];
  double sum = 0.0;
  for (double x : xs) {
    sum += x;
    s.min = std::min(s.min, x);
    s.max = std::max(s.max, x);
  }
  s.mean = sum / static_cast<double>(xs.size());
  double ss = 0.0;
  for (double x : xs) {
    const double d = x - s.mean;
    ss += d * d;
  }
  s.variance = ss / static_cast<double>(xs.size());
  s.stddev = std::sqrt(s.variance);
  return s;
}

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) { return summarize(xs).variance; }

double stddev(std::span<const double> xs) { return summarize(xs).stddev; }

double quantile(std::span<const double> xs, double q) {
  if (xs.empty()) throw std::invalid_argument("quantile: empty input");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile: q not in [0,1]");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

double mean_abs_successive_diff(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 1; i < xs.size(); ++i) {
    sum += std::abs(xs[i] - xs[i - 1]);
  }
  return sum / static_cast<double>(xs.size() - 1);
}

}  // namespace amperebleed::stats
