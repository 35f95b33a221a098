#pragma once
// Piecewise-constant signals: the canonical representation of workload
// activity (per-rail current draw as a function of time). Sensor models
// integrate these analytically over their conversion windows, which keeps
// multi-second simulations cheap regardless of circuit clock rates.

#include <cstddef>
#include <vector>

#include "amperebleed/sim/time.hpp"

namespace amperebleed::sim {

/// A right-open piecewise-constant function of time.
///
/// The value at time t is the value of the last segment whose start is <= t;
/// before the first segment the signal is `initial_value` (default 0).
/// Segments must be appended in strictly increasing start-time order.
class PiecewiseConstant {
 public:
  struct Segment {
    TimeNs start;
    double value;
  };

  explicit PiecewiseConstant(double initial_value = 0.0)
      : initial_value_(initial_value) {}

  /// Append a new segment starting at `start`. Throws std::invalid_argument
  /// if `start` is not after the previous segment's start. Appending the
  /// same value as the current tail is accepted and coalesced.
  void append(TimeNs start, double value);

  /// Value at time t (right-open semantics).
  [[nodiscard]] double value_at(TimeNs t) const;

  /// Exact integral of the signal over [t0, t1). Precondition: t0 <= t1.
  /// Units: value-units * seconds.
  [[nodiscard]] double integrate(TimeNs t0, TimeNs t1) const;

  /// Mean value over [t0, t1); returns value_at(t0) when the window is empty.
  [[nodiscard]] double mean(TimeNs t0, TimeNs t1) const;

  /// Cursor forms of integrate/mean for a caller that walks windows forward
  /// in time (a sensor's conversions). `cursor` is caller-held state: start
  /// it at 0 for a signal and pass the same variable back on every call.
  /// Each call seeks forward from it instead of binary-searching, then
  /// leaves it at the window's last segment. A window that starts before
  /// the cursor (or a cursor from another signal) costs one binary search,
  /// never a wrong answer. The result is bit-identical to the
  /// random-access form: both run the same summation loop.
  [[nodiscard]] double integrate(TimeNs t0, TimeNs t1,
                                 std::size_t& cursor) const;
  [[nodiscard]] double mean(TimeNs t0, TimeNs t1, std::size_t& cursor) const;

  /// Minimum / maximum value attained over [t0, t1).
  [[nodiscard]] double min_over(TimeNs t0, TimeNs t1) const;
  [[nodiscard]] double max_over(TimeNs t0, TimeNs t1) const;

  [[nodiscard]] std::size_t segment_count() const { return segments_.size(); }
  [[nodiscard]] const std::vector<Segment>& segments() const { return segments_; }
  [[nodiscard]] double initial_value() const { return initial_value_; }

  /// End of the last segment's start time; TimeNs{0} if empty.
  [[nodiscard]] TimeNs last_change() const {
    return segments_.empty() ? TimeNs{0} : segments_.back().start;
  }

  /// Pointwise sum of two signals.
  friend PiecewiseConstant operator+(const PiecewiseConstant& a,
                                     const PiecewiseConstant& b);

  /// Multiply every value (including the initial value) by `factor`.
  void scale(double factor);

  /// Add `c` to every value (including the initial value), in place. The
  /// result has exactly the segments of `*this + PiecewiseConstant(c)`:
  /// a segment whose sum rounds to the value before it is dropped, as
  /// append() drops it.
  void offset(double c);

  /// Capacity hint for a builder that knows (an upper bound on) how many
  /// segments it will append.
  void reserve(std::size_t segments) { segments_.reserve(segments); }

 private:
  // Number of segments whose start is <= t: the active segment is the one
  // before that count, or the initial value when it is 0.
  [[nodiscard]] std::size_t count_at(TimeNs t) const;
  // Integral over [t0, t1) given k = count_at(t0); returns with k at the
  // count of the window's last segment. Precondition: t0 < t1.
  [[nodiscard]] double integrate_from(TimeNs t0, TimeNs t1,
                                      std::size_t& k) const;

  double initial_value_;
  std::vector<Segment> segments_;
};

}  // namespace amperebleed::sim
