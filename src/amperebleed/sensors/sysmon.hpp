#pragma once
// Xilinx SYSMON (AMS) on-die monitor — the other unprivileged hwmon device a
// ZCU102-class board exposes. AmpereBleed itself uses the INA226s; the
// SYSMON temperature channel is the thermal cousin (cf. ThermalScope) and is
// modelled here so the repo can compare the two directly: temperature
// integrates power through an ~8 s thermal RC, so it resolves far fewer
// victim activity levels per unit time than the 35 ms current channel.

#include <cstdint>

#include "amperebleed/sim/signal.hpp"
#include "amperebleed/sim/time.hpp"
#include "amperebleed/util/rng.hpp"

namespace amperebleed::sensors {

struct SysmonConfig {
  /// SYSMONE4 temperature transfer: Temp(C) = code * 507.5921/2^16 - 279.42.
  double temp_scale = 507.5921 / 65536.0;
  double temp_offset = -279.42;
  /// Conversion period of the on-die ADC sequencer.
  sim::TimeNs conversion_period = sim::milliseconds(1);
  /// ADC-referred temperature noise (1 sigma, degC per conversion).
  double temp_noise_celsius = 0.05;
};

/// Minimal register/engineering-unit model of the AMS die-temperature
/// channel. Binding and time semantics mirror Ina226.
class Sysmon {
 public:
  Sysmon(SysmonConfig config, std::uint64_t seed);

  /// Bind the die-temperature signal (degrees Celsius vs time).
  void bind(const sim::PiecewiseConstant* temperature_celsius);

  /// Run all conversions completing by t (monotonic).
  void advance_to(sim::TimeNs t);

  /// Latest converted die temperature in Celsius (quantized to the ADC
  /// transfer function). 0 conversions -> the offset-coded 0 reading.
  [[nodiscard]] double temperature_celsius() const;
  [[nodiscard]] std::uint16_t raw_code() const { return code_; }
  [[nodiscard]] std::uint64_t conversions_completed() const {
    return conversions_;
  }
  [[nodiscard]] const SysmonConfig& config() const { return config_; }

 private:
  SysmonConfig config_;
  util::Rng rng_;
  const sim::PiecewiseConstant* temperature_ = nullptr;
  std::size_t cursor_ = 0;  // segment cursor into *temperature_
  sim::TimeNs now_{0};
  sim::TimeNs next_conversion_{0};
  std::uint16_t code_ = 0;
  std::uint64_t conversions_ = 0;
};

}  // namespace amperebleed::sensors
