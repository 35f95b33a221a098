#include "amperebleed/power/thermal.hpp"

#include <cmath>
#include <stdexcept>

namespace amperebleed::power {

ThermalModel::ThermalModel(ThermalConfig config) : config_(config) {
  if (config_.r_th_c_per_w < 0.0) {
    throw std::invalid_argument("ThermalModel: negative R_th");
  }
  if (config_.tau_seconds <= 0.0) {
    throw std::invalid_argument("ThermalModel: tau must be > 0");
  }
  if (config_.step.ns <= 0) {
    throw std::invalid_argument("ThermalModel: step must be > 0");
  }
}

double ThermalModel::steady_temperature(double watts) const {
  return config_.ambient_celsius + config_.r_th_c_per_w * watts;
}

sim::PiecewiseConstant ThermalModel::temperature_signal(
    const sim::PiecewiseConstant& power_watts, sim::TimeNs end) const {
  if (end.ns < 0) {
    throw std::invalid_argument("ThermalModel: negative end time");
  }
  double temperature =
      steady_temperature(power_watts.value_at(sim::TimeNs{0}));
  sim::PiecewiseConstant out(temperature);

  const double decay =
      std::exp(-config_.step.seconds() / config_.tau_seconds);
  std::size_t cursor = 0;
  for (sim::TimeNs t{config_.step}; t < end; t += config_.step) {
    // Mean power over the elapsed step drives the target temperature.
    const double p = power_watts.mean(t - config_.step, t, cursor);
    const double target = steady_temperature(p);
    temperature = target + (temperature - target) * decay;
    out.append(t, temperature);
  }
  return out;
}

}  // namespace amperebleed::power
