#pragma once
// Register-level model of the TI INA226 current/voltage/power monitor — the
// sensor AmpereBleed exploits. Faithful to the datasheet in everything the
// attack depends on:
//   * shunt ADC (2.5 uV LSB) and bus ADC (1.25 mV LSB fixed),
//   * CURRENT register scaled by the CALIBRATION register
//     (CAL = 0.00512 / (Current_LSB * R_shunt)),
//   * POWER register = CURRENT * BUS / 20000, i.e. Power LSB is fixed at
//     25x the current LSB — the resolution cliff that makes the power
//     channel strictly coarser than the current channel,
//   * conversion timing: avg_count * (shunt_ct + bus_ct) per update, 35.2 ms
//     with the board default AVG=16, CT=1.1 ms.
// The ADC "measures" by integrating bound current/voltage signals over each
// sub-conversion window and applying the rail noise process.

#include <cstdint>
#include <memory>

#include "amperebleed/power/noise_model.hpp"
#include "amperebleed/sim/signal.hpp"
#include "amperebleed/sim/time.hpp"

namespace amperebleed::sensors {

/// INA226 register addresses (datasheet table 7-2).
enum class Ina226Register : std::uint8_t {
  Configuration = 0x00,
  ShuntVoltage = 0x01,
  BusVoltage = 0x02,
  Power = 0x03,
  Current = 0x04,
  Calibration = 0x05,
  MaskEnable = 0x06,
  AlertLimit = 0x07,
  ManufacturerId = 0xFE,
  DieId = 0xFF,
};

struct Ina226Config {
  /// Shunt resistor on this monitoring point.
  double shunt_ohms = 0.005;
  /// Desired current LSB; the calibration register is derived from it.
  /// 1 mA is the hwmon-visible resolution on the evaluated boards.
  double current_lsb_amps = 0.001;
  /// Averaging count (AVG field): 1,4,16,64,128,256,512,1024.
  std::uint16_t avg_count = 16;
  /// Per-sample conversion times (VSHCT/VBUSCT fields).
  sim::TimeNs shunt_conv_time = sim::microseconds(1100);
  sim::TimeNs bus_conv_time = sim::microseconds(1100);
};

/// One INA226 device attached to a rail. Time is advanced explicitly by the
/// owning SoC; registers hold the most recently completed conversion.
class Ina226 {
 public:
  Ina226(Ina226Config config, const power::RailNoiseConfig& noise,
         std::uint64_t seed);

  /// Bind the signals this sensor digitizes. Pointers must outlive the
  /// sensor. Must be called before advance_to(). Rebinding is allowed;
  /// conversions after it read the new signals.
  void bind(const sim::PiecewiseConstant* rail_current_amps,
            const sim::PiecewiseConstant* bus_voltage_volts);

  /// Run all conversions that complete by time t (monotonic).
  void advance_to(sim::TimeNs t);

  /// Raw register access (I2C view). Unknown registers read 0xFFFF.
  [[nodiscard]] std::uint16_t read_register(Ina226Register reg) const;
  /// Configuration/calibration writes take effect on the next conversion
  /// cycle; data registers are read-only (writes ignored, like hardware).
  void write_register(Ina226Register reg, std::uint16_t value);

  /// Engineering-unit views of the data registers (what the hwmon driver
  /// computes from them).
  [[nodiscard]] double current_amps() const;
  [[nodiscard]] double bus_voltage_volts() const;
  [[nodiscard]] double power_watts() const;
  [[nodiscard]] double shunt_voltage_volts() const;

  /// avg_count * (shunt_ct + bus_ct) — the hwmon update_interval.
  [[nodiscard]] sim::TimeNs update_interval() const;
  /// Reconfigure averaging/conversion time (root-only via hwmon; the
  /// unprivileged attacker cannot reach this).
  void set_timing(std::uint16_t avg_count, sim::TimeNs shunt_ct,
                  sim::TimeNs bus_ct);

  [[nodiscard]] double current_lsb_amps() const { return config_.current_lsb_amps; }
  [[nodiscard]] double power_lsb_watts() const {
    return 25.0 * config_.current_lsb_amps;
  }
  static constexpr double kBusVoltageLsbVolts = 1.25e-3;
  static constexpr double kShuntVoltageLsbVolts = 2.5e-6;

  [[nodiscard]] sim::TimeNs now() const { return now_; }
  [[nodiscard]] std::uint64_t conversions_completed() const {
    return conversions_completed_;
  }
  [[nodiscard]] const Ina226Config& config() const { return config_; }

 private:
  void complete_conversion(sim::TimeNs conversion_start);
  [[nodiscard]] static std::uint16_t calibration_for(const Ina226Config& c);

  Ina226Config config_;
  power::RailNoiseProcess noise_;
  const sim::PiecewiseConstant* rail_current_ = nullptr;
  const sim::PiecewiseConstant* bus_voltage_ = nullptr;
  // Segment cursors of the bound signals (PiecewiseConstant's cursor
  // integrate): conversion windows only move forward.
  std::size_t current_cursor_ = 0;
  std::size_t voltage_cursor_ = 0;

  sim::TimeNs now_{0};
  sim::TimeNs next_conversion_start_{0};
  std::uint64_t conversions_completed_ = 0;

  // Data registers (two's complement raw codes, as on the wire).
  std::int16_t reg_shunt_ = 0;
  std::uint16_t reg_bus_ = 0;
  std::uint16_t reg_power_ = 0;
  std::int16_t reg_current_ = 0;
  std::uint16_t reg_calibration_ = 0;
  std::uint16_t reg_config_ = 0x4527;  // AVG=16, CT=1.1ms, continuous
};

}  // namespace amperebleed::sensors
