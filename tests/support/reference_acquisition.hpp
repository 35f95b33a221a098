#pragma once
// Reference acquisition primitives, as they were before the signal cursor
// and the noise-step memo: PiecewiseConstant::integrate as one binary
// search plus a per-call loop, and an Ornstein-Uhlenbeck step that
// recomputes its decay and noise stddev on every call. Kept as the oracles
// tests/sim pits sim::PiecewiseConstant and sim::OrnsteinUhlenbeck against.

#include <cstdint>

#include "amperebleed/sim/signal.hpp"
#include "amperebleed/sim/time.hpp"
#include "amperebleed/util/rng.hpp"

namespace amperebleed::sim::reference {

/// Same contract as PiecewiseConstant::integrate(t0, t1).
double integrate(const PiecewiseConstant& signal, TimeNs t0, TimeNs t1);

/// Same contract and draws as sim::OrnsteinUhlenbeck.
class OrnsteinUhlenbeck {
 public:
  OrnsteinUhlenbeck(double mu, double theta, double sigma, std::uint64_t seed)
      : mu_(mu), theta_(theta), sigma_(sigma), x_(mu), rng_(seed) {}
  double step(TimeNs dt);

 private:
  double mu_;
  double theta_;
  double sigma_;
  double x_;
  util::Rng rng_;
};

}  // namespace amperebleed::sim::reference
