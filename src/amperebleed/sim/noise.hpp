#pragma once
// Slow Ornstein-Uhlenbeck drift used by the board model for
// thermal/regulator wander. Seeded and deterministic.

#include "amperebleed/sim/time.hpp"
#include "amperebleed/util/rng.hpp"

namespace amperebleed::sim {

/// Ornstein-Uhlenbeck process: dx = theta*(mu - x)*dt + sigma*dW.
/// step(dt) advances the process by dt using the exact discretization, so the
/// statistics do not depend on the step size used by the caller. Callers
/// step at a fixed cadence, so the decay and noise stddev of the last dt
/// are kept and reused while dt repeats.
class OrnsteinUhlenbeck {
 public:
  /// @param mu     long-run mean
  /// @param theta  mean-reversion rate (1/s); larger = faster reversion
  /// @param sigma  diffusion strength
  OrnsteinUhlenbeck(double mu, double theta, double sigma, std::uint64_t seed);

  /// Advance by dt (must be >= 0) and return the new value.
  double step(TimeNs dt);

  [[nodiscard]] double value() const { return x_; }
  /// Stationary standard deviation sigma / sqrt(2*theta).
  [[nodiscard]] double stationary_stddev() const;
  void reset(double x0) { x_ = x0; }

 private:
  double mu_;
  double theta_;
  double sigma_;
  double x_;
  util::Rng rng_;
  std::int64_t memo_dt_ns_ = 0;  // 0: nothing memoised (step(0) is a no-op)
  double memo_decay_ = 1.0;
  double memo_stddev_ = 0.0;
};

}  // namespace amperebleed::sim
