#include "amperebleed/stats/correlation.hpp"

#include <cmath>
#include <stdexcept>

namespace amperebleed::stats {

namespace {

void check_pair(std::span<const double> xs, std::span<const double> ys) {
  if (xs.size() != ys.size()) {
    throw std::invalid_argument("correlation: length mismatch");
  }
  if (xs.size() < 2) {
    throw std::invalid_argument("correlation: need at least 2 points");
  }
}

}  // namespace

double pearson(std::span<const double> xs, std::span<const double> ys) {
  check_pair(xs, ys);
  const auto n = static_cast<double>(xs.size());
  double mx = 0.0;
  double my = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    mx += xs[i];
    my += ys[i];
  }
  mx /= n;
  my /= n;
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

}  // namespace amperebleed::stats
