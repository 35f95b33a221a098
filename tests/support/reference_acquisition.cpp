#include "reference_acquisition.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace amperebleed::sim::reference {

double integrate(const PiecewiseConstant& signal, TimeNs t0, TimeNs t1) {
  if (t1 < t0) throw std::invalid_argument("integrate: t1 < t0");
  if (t0 == t1) return 0.0;
  constexpr std::size_t npos = static_cast<std::size_t>(-1);
  const auto& segments = signal.segments();
  // Index of the segment active at t0, or npos before the first one.
  const auto it = std::upper_bound(
      segments.begin(), segments.end(), t0,
      [](TimeNs lhs, const PiecewiseConstant::Segment& seg) {
        return lhs < seg.start;
      });
  std::size_t i = it == segments.begin()
                      ? npos
                      : static_cast<std::size_t>(it - segments.begin()) - 1;
  double total = 0.0;
  TimeNs cursor = t0;
  while (cursor < t1) {
    const std::size_t next = (i == npos) ? 0 : i + 1;
    const TimeNs segment_end =
        next < segments.size() ? std::min(segments[next].start, t1) : t1;
    const double value =
        (i == npos) ? signal.initial_value() : segments[i].value;
    total += value * (segment_end - cursor).seconds();
    cursor = segment_end;
    i = next;
  }
  return total;
}

double OrnsteinUhlenbeck::step(TimeNs dt) {
  if (dt.ns < 0) throw std::invalid_argument("OU: dt must be >= 0");
  if (dt.ns == 0) return x_;
  const double dts = dt.seconds();
  const double decay = std::exp(-theta_ * dts);
  const double var =
      sigma_ * sigma_ / (2.0 * theta_) * (1.0 - std::exp(-2.0 * theta_ * dts));
  x_ = mu_ + (x_ - mu_) * decay + rng_.gaussian(0.0, std::sqrt(var));
  return x_;
}

}  // namespace amperebleed::sim::reference
