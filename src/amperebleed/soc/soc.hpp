#pragma once
// The whole evaluation platform: ZCU102-class ARM-FPGA SoC with four
// monitored rails, one INA226 per rail, PDN/stabilizer models, and the
// hwmon sysfs through which the unprivileged attacker observes everything.
//
// Usage pattern (mirrors a real experiment):
//   Soc soc(zcu102_config());
//   soc.fabric().deploy(...victim circuits...);
//   soc.add_activity(victim_schedule);
//   soc.finalize();                       // power-on: signals fixed, ADCs run
//   soc.advance_to(t); soc.hwmon().fs().read(".../curr1_input", false);

#include <array>
#include <memory>
#include <optional>

#include "amperebleed/fpga/fabric.hpp"
#include "amperebleed/hwmon/hwmon.hpp"
#include "amperebleed/power/activity.hpp"
#include "amperebleed/power/noise_model.hpp"
#include "amperebleed/power/pdn.hpp"
#include "amperebleed/power/thermal.hpp"
#include "amperebleed/sensors/i2c.hpp"
#include "amperebleed/sensors/ina226.hpp"
#include "amperebleed/sensors/sysmon.hpp"
#include "amperebleed/sim/time.hpp"

namespace amperebleed::soc {

struct SocConfig {
  fpga::FabricConfig fabric{};
  std::array<power::PdnConfig, power::kRailCount> pdn{};
  std::array<sensors::Ina226Config, power::kRailCount> sensor{};
  std::array<power::RailNoiseConfig, power::kRailCount> noise{};
  /// Static board baseline current per rail (everything not modelled as an
  /// explicit workload: PS peripherals, DDR refresh, fabric leakage...).
  std::array<double, power::kRailCount> idle_current_amps{};
  hwmon::HwmonPolicy hwmon_policy{};
  /// Die thermal model + SYSMON (AMS) temperature channel. The thermal
  /// signal is built out to the last workload change plus `thermal_margin`,
  /// which costs memory/time proportional to experiment length — opt in
  /// when the temperature channel is under study.
  bool with_sysmon = false;
  power::ThermalConfig thermal{};
  sensors::SysmonConfig sysmon{};
  sim::TimeNs thermal_margin = sim::seconds(10);
  std::uint64_t seed = 1;
};

/// Calibrated ZCU102 defaults (see DESIGN.md for the calibration targets).
SocConfig zcu102_config(std::uint64_t seed = 1);

/// Versal VCK190 variant (Table I): Cortex-A72 cores, lower fabric voltage
/// band (0.775-0.825 V), larger fabric. Exercises the paper's claim that
/// the attack generalizes beyond Zynq UltraScale+ — the sensors and hwmon
/// semantics are identical.
SocConfig vck190_config(std::uint64_t seed = 1);

class Soc {
 public:
  explicit Soc(SocConfig config);

  // The sensors and hwmon callbacks hold pointers into this object, so it
  // must stay at a fixed address for its lifetime.
  Soc(const Soc&) = delete;
  Soc& operator=(const Soc&) = delete;

  [[nodiscard]] fpga::Fabric& fabric() { return fabric_; }
  [[nodiscard]] const SocConfig& config() const { return config_; }

  /// Accumulate workload activity. Only valid before finalize().
  void add_activity(const power::RailActivity& activity);

  /// Freeze the activity into per-rail current/voltage signals, bind the
  /// sensors, and register them with hwmon. Callable exactly once.
  void finalize();
  [[nodiscard]] bool finalized() const { return finalized_; }

  /// Move the virtual clock forward. Sensor conversions catch up lazily on
  /// access, so this is O(1).
  void advance_to(sim::TimeNs t);
  [[nodiscard]] sim::TimeNs now() const { return now_; }

  /// Direct sensor access (tests / privileged tooling).
  [[nodiscard]] sensors::Ina226& sensor(power::Rail rail);
  [[nodiscard]] hwmon::HwmonSubsystem& hwmon() { return *hwmon_; }
  /// hwmon device index for a rail's INA226.
  [[nodiscard]] int hwmon_index(power::Rail rail) const;
  /// The SYSMON die monitor (throws if with_sysmon is false or before
  /// finalize). Its hwmon index is sysmon_hwmon_index().
  [[nodiscard]] sensors::Sysmon& sysmon();
  [[nodiscard]] int sysmon_hwmon_index() const;
  /// Ground-truth die temperature signal (after finalize, with_sysmon).
  [[nodiscard]] const sim::PiecewiseConstant& die_temperature() const;

  /// The board I2C bus carrying the INA226s (root-only raw path; the
  /// kernel driver and i2c-tools use this). Sensors sit at 0x40 + rail
  /// index. Available after finalize.
  [[nodiscard]] sensors::I2cBus& i2c();
  static constexpr std::uint8_t kIna226BaseAddress = 0x40;

  /// Ground-truth signals (after finalize); what the shunts actually carry.
  [[nodiscard]] const sim::PiecewiseConstant& rail_current(power::Rail) const;
  [[nodiscard]] const sim::PiecewiseConstant& rail_voltage(power::Rail) const;
  [[nodiscard]] const power::PdnModel& pdn(power::Rail rail) const;

 private:
  SocConfig config_;
  fpga::Fabric fabric_;
  std::array<power::PdnModel, power::kRailCount> pdn_;
  power::RailActivity pending_;
  bool has_pending_ = false;
  bool finalized_ = false;
  sim::TimeNs now_{0};

  std::array<sim::PiecewiseConstant, power::kRailCount> rail_current_;
  std::array<sim::PiecewiseConstant, power::kRailCount> rail_voltage_;
  std::array<std::unique_ptr<sensors::Ina226>, power::kRailCount> sensors_;
  std::unique_ptr<hwmon::HwmonSubsystem> hwmon_;
  std::array<int, power::kRailCount> hwmon_index_{};
  sim::PiecewiseConstant die_temperature_;
  std::unique_ptr<sensors::Sysmon> sysmon_;
  int sysmon_hwmon_index_ = -1;
  sensors::I2cBus i2c_;
  std::vector<std::unique_ptr<sensors::Ina226I2cAdapter>> i2c_adapters_;
};

}  // namespace amperebleed::soc
