#include "amperebleed/sim/noise.hpp"

#include <cmath>
#include <stdexcept>

namespace amperebleed::sim {

OrnsteinUhlenbeck::OrnsteinUhlenbeck(double mu, double theta, double sigma,
                                     std::uint64_t seed)
    : mu_(mu), theta_(theta), sigma_(sigma), x_(mu), rng_(seed) {
  if (theta <= 0.0) throw std::invalid_argument("OU: theta must be > 0");
  if (sigma < 0.0) throw std::invalid_argument("OU: sigma must be >= 0");
}

double OrnsteinUhlenbeck::step(TimeNs dt) {
  if (dt.ns < 0) throw std::invalid_argument("OU: dt must be >= 0");
  if (dt.ns == 0) return x_;
  if (dt.ns != memo_dt_ns_) {
    const double dts = dt.seconds();
    // Exact update: x' = mu + (x - mu) e^{-theta dt} + N(0, var)
    // with var = sigma^2/(2 theta) (1 - e^{-2 theta dt}).
    memo_decay_ = std::exp(-theta_ * dts);
    const double var = sigma_ * sigma_ / (2.0 * theta_) *
                       (1.0 - std::exp(-2.0 * theta_ * dts));
    memo_stddev_ = std::sqrt(var);
    memo_dt_ns_ = dt.ns;
  }
  x_ = mu_ + (x_ - mu_) * memo_decay_ + rng_.gaussian(0.0, memo_stddev_);
  return x_;
}

double OrnsteinUhlenbeck::stationary_stddev() const {
  return sigma_ / std::sqrt(2.0 * theta_);
}

}  // namespace amperebleed::sim
