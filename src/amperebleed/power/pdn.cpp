#include "amperebleed/power/pdn.hpp"

#include <algorithm>
#include <stdexcept>

#include "amperebleed/obs/obs.hpp"

namespace amperebleed::power {

PdnModel::PdnModel(PdnConfig config) : config_(config) {
  if (config_.v_min > config_.v_max) {
    throw std::invalid_argument("PdnModel: v_min > v_max");
  }
  if (config_.stabilizer_gain < 0.0 || config_.stabilizer_gain > 1.0) {
    throw std::invalid_argument("PdnModel: stabilizer_gain not in [0,1]");
  }
  if (config_.r_effective_ohms < 0.0 || config_.l_effective_henries < 0.0) {
    throw std::invalid_argument("PdnModel: negative R or L");
  }
  if (config_.transient_width.ns <= 0) {
    throw std::invalid_argument("PdnModel: transient_width must be > 0");
  }
}

double PdnModel::clamp_to_band(double v) const {
  return std::clamp(v, config_.v_min, config_.v_max);
}

double PdnModel::steady_voltage(double current_amps) const {
  const double residual_r =
      config_.r_effective_ohms * (1.0 - config_.stabilizer_gain);
  const double droop =
      residual_r * (current_amps - config_.idle_current_amps);
  return clamp_to_band(config_.v_nominal - droop);
}

double PdnModel::raw_droop(double current_amps,
                           double di_dt_amps_per_s) const {
  return current_amps * config_.r_effective_ohms +
         config_.l_effective_henries * di_dt_amps_per_s;
}

sim::PiecewiseConstant PdnModel::voltage_signal(
    const sim::PiecewiseConstant& rail_current) const {
  // Signal compilation happens once per finalize(); the step count tracks
  // how large the compiled voltage waveform is (memory/time proxy).
  obs::count("pdn.compiles");
  obs::count("pdn.voltage_steps", rail_current.segments().size());
  sim::PiecewiseConstant v(steady_voltage(rail_current.initial_value()));
  double prev_current = rail_current.initial_value();
  const auto& segs = rail_current.segments();
  // One spike per load step plus one settle point per step that the next
  // step does not pre-empt: size the output once.
  std::size_t settles = 0;
  for (std::size_t i = 0; i < segs.size(); ++i) {
    if (i + 1 >= segs.size() ||
        segs[i + 1].start > segs[i].start + config_.transient_width) {
      ++settles;
    }
  }
  v.reserve(segs.size() + settles);
  for (std::size_t i = 0; i < segs.size(); ++i) {
    const auto& seg = segs[i];
    const double delta_i = seg.value - prev_current;
    // The regulator's loop bandwidth is too low to cancel the inductive
    // transient: expose an L*dI/dt spike for transient_width, then settle.
    const double di_dt = delta_i / config_.transient_width.seconds();
    const double spike =
        config_.l_effective_henries * di_dt;  // sign follows the load step
    v.append(seg.start, clamp_to_band(steady_voltage(seg.value) - spike));
    // Settle back to steady state unless the next load step arrives first
    // (then its own spike supersedes the recovery).
    const sim::TimeNs settle = seg.start + config_.transient_width;
    if (i + 1 >= segs.size() || segs[i + 1].start > settle) {
      v.append(settle, steady_voltage(seg.value));
    }
    prev_current = seg.value;
  }
  return v;
}

}  // namespace amperebleed::power
