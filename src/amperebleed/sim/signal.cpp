#include "amperebleed/sim/signal.hpp"

#include <algorithm>
#include <stdexcept>

namespace amperebleed::sim {

void PiecewiseConstant::append(TimeNs start, double value) {
  const double current_tail =
      segments_.empty() ? initial_value_ : segments_.back().value;
  if (value == current_tail) return;  // coalesce no-op changes
  if (!segments_.empty() && start <= segments_.back().start) {
    throw std::invalid_argument(
        "PiecewiseConstant::append: segment starts must strictly increase");
  }
  segments_.push_back(Segment{start, value});
}

std::size_t PiecewiseConstant::count_at(TimeNs t) const {
  const auto it = std::upper_bound(
      segments_.begin(), segments_.end(), t,
      [](TimeNs lhs, const Segment& seg) { return lhs < seg.start; });
  return static_cast<std::size_t>(std::distance(segments_.begin(), it));
}

double PiecewiseConstant::value_at(TimeNs t) const {
  const std::size_t k = count_at(t);
  return k == 0 ? initial_value_ : segments_[k - 1].value;
}

double PiecewiseConstant::integrate_from(TimeNs t0, TimeNs t1,
                                         std::size_t& k) const {
  // One term per piece of the window, in time order; the last piece (up
  // to t1) also covers the tail past the final segment.
  double total = 0.0;
  TimeNs at = t0;
  for (;;) {
    const double value = k == 0 ? initial_value_ : segments_[k - 1].value;
    if (k == segments_.size() || segments_[k].start >= t1) {
      total += value * (t1 - at).seconds();
      return total;
    }
    total += value * (segments_[k].start - at).seconds();
    at = segments_[k].start;
    ++k;
  }
}

double PiecewiseConstant::integrate(TimeNs t0, TimeNs t1) const {
  if (t1 < t0) throw std::invalid_argument("integrate: t1 < t0");
  if (t0 == t1) return 0.0;
  std::size_t k = count_at(t0);
  return integrate_from(t0, t1, k);
}

double PiecewiseConstant::integrate(TimeNs t0, TimeNs t1,
                                    std::size_t& cursor) const {
  if (t1 < t0) throw std::invalid_argument("integrate: t1 < t0");
  if (t0 == t1) return 0.0;
  const std::size_t n = segments_.size();
  if (cursor > n || (cursor > 0 && segments_[cursor - 1].start > t0)) {
    cursor = count_at(t0);  // not a forward step from this signal's cursor
  } else {
    while (cursor < n && segments_[cursor].start <= t0) ++cursor;
  }
  return integrate_from(t0, t1, cursor);
}

double PiecewiseConstant::mean(TimeNs t0, TimeNs t1) const {
  if (t1 <= t0) return value_at(t0);
  return integrate(t0, t1) / (t1 - t0).seconds();
}

double PiecewiseConstant::mean(TimeNs t0, TimeNs t1,
                               std::size_t& cursor) const {
  if (t1 <= t0) return value_at(t0);
  return integrate(t0, t1, cursor) / (t1 - t0).seconds();
}

double PiecewiseConstant::min_over(TimeNs t0, TimeNs t1) const {
  double best = value_at(t0);
  for (const auto& seg : segments_) {
    if (seg.start >= t1) break;
    if (seg.start > t0) best = std::min(best, seg.value);
  }
  return best;
}

double PiecewiseConstant::max_over(TimeNs t0, TimeNs t1) const {
  double best = value_at(t0);
  for (const auto& seg : segments_) {
    if (seg.start >= t1) break;
    if (seg.start > t0) best = std::max(best, seg.value);
  }
  return best;
}

PiecewiseConstant operator+(const PiecewiseConstant& a,
                            const PiecewiseConstant& b) {
  PiecewiseConstant out(a.initial_value_ + b.initial_value_);
  out.reserve(a.segments_.size() + b.segments_.size());
  std::size_t ia = 0;
  std::size_t ib = 0;
  double va = a.initial_value_;
  double vb = b.initial_value_;
  while (ia < a.segments_.size() || ib < b.segments_.size()) {
    const bool take_a =
        ib >= b.segments_.size() ||
        (ia < a.segments_.size() &&
         a.segments_[ia].start <= b.segments_[ib].start);
    TimeNs t{};
    if (take_a) {
      t = a.segments_[ia].start;
      va = a.segments_[ia].value;
      ++ia;
      // Consume a simultaneous change in b at the same instant.
      if (ib < b.segments_.size() && b.segments_[ib].start == t) {
        vb = b.segments_[ib].value;
        ++ib;
      }
    } else {
      t = b.segments_[ib].start;
      vb = b.segments_[ib].value;
      ++ib;
    }
    out.append(t, va + vb);
  }
  return out;
}

void PiecewiseConstant::scale(double factor) {
  initial_value_ *= factor;
  for (auto& seg : segments_) seg.value *= factor;
}

void PiecewiseConstant::offset(double c) {
  // append()'s coalescing, applied in place: keep a shifted segment only
  // if it differs from the value before it.
  initial_value_ += c;
  double tail = initial_value_;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    const double value = segments_[i].value + c;
    if (value == tail) continue;
    segments_[kept++] = Segment{segments_[i].start, value};
    tail = value;
  }
  segments_.resize(kept);
}

}  // namespace amperebleed::sim
