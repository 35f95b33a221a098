#include "amperebleed/sensors/ina226.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace amperebleed::sensors {

namespace {

std::int16_t clamp_i16(double code) {
  return static_cast<std::int16_t>(
      std::clamp(std::llround(code), -32768LL, 32767LL));
}

std::uint16_t clamp_u16(double code) {
  return static_cast<std::uint16_t>(
      std::clamp(std::llround(code), 0LL, 65535LL));
}

}  // namespace

Ina226::Ina226(Ina226Config config, const power::RailNoiseConfig& noise,
               std::uint64_t seed)
    : config_(config), noise_(noise, seed) {
  if (config_.shunt_ohms <= 0.0) {
    throw std::invalid_argument("Ina226: shunt resistance must be > 0");
  }
  if (config_.current_lsb_amps <= 0.0) {
    throw std::invalid_argument("Ina226: current LSB must be > 0");
  }
  if (config_.avg_count == 0) {
    throw std::invalid_argument("Ina226: avg_count must be > 0");
  }
  if (config_.shunt_conv_time.ns <= 0 || config_.bus_conv_time.ns <= 0) {
    throw std::invalid_argument("Ina226: conversion times must be > 0");
  }
  reg_calibration_ = calibration_for(config_);
}

std::uint16_t Ina226::calibration_for(const Ina226Config& c) {
  // Datasheet eq. 1: CAL = 0.00512 / (Current_LSB * R_shunt).
  const double cal = 0.00512 / (c.current_lsb_amps * c.shunt_ohms);
  return clamp_u16(cal);
}

void Ina226::bind(const sim::PiecewiseConstant* rail_current_amps,
                  const sim::PiecewiseConstant* bus_voltage_volts) {
  if (rail_current_amps == nullptr || bus_voltage_volts == nullptr) {
    throw std::invalid_argument("Ina226::bind: null signal");
  }
  rail_current_ = rail_current_amps;
  bus_voltage_ = bus_voltage_volts;
  current_cursor_ = 0;
  voltage_cursor_ = 0;
}

sim::TimeNs Ina226::update_interval() const {
  return sim::TimeNs{static_cast<std::int64_t>(config_.avg_count) *
                     (config_.shunt_conv_time.ns + config_.bus_conv_time.ns)};
}

void Ina226::set_timing(std::uint16_t avg_count, sim::TimeNs shunt_ct,
                        sim::TimeNs bus_ct) {
  if (avg_count == 0 || shunt_ct.ns <= 0 || bus_ct.ns <= 0) {
    throw std::invalid_argument("Ina226::set_timing: invalid timing");
  }
  config_.avg_count = avg_count;
  config_.shunt_conv_time = shunt_ct;
  config_.bus_conv_time = bus_ct;
}

void Ina226::complete_conversion(sim::TimeNs conversion_start) {
  // One full update: avg_count rounds of (shunt sample, bus sample). Each
  // sample integrates the bound signal over its conversion window, applies
  // the rail noise, and is quantized at the ADC LSB; rounds are averaged.
  double shunt_sum = 0.0;
  double bus_sum = 0.0;
  sim::TimeNs t = conversion_start;
  for (std::uint16_t round = 0; round < config_.avg_count; ++round) {
    const auto noise =
        noise_.step(sim::TimeNs{config_.shunt_conv_time.ns +
                                config_.bus_conv_time.ns});

    const double i_true = rail_current_->mean(t, t + config_.shunt_conv_time,
                                              current_cursor_);
    // Multiplicative drift plus self-heating nonlinearity (see
    // RailNoiseConfig::thermal_nonlinearity_per_amp).
    const double thermal =
        1.0 + noise_.config().thermal_nonlinearity_per_amp * i_true;
    const double i_meas =
        i_true * noise.current_gain * thermal + noise.current_offset_amps;
    const double v_shunt = i_meas * config_.shunt_ohms;
    shunt_sum += std::round(v_shunt / kShuntVoltageLsbVolts);
    t += config_.shunt_conv_time;

    const double v_true = bus_voltage_->mean(t, t + config_.bus_conv_time,
                                             voltage_cursor_);
    const double v_meas = v_true + noise.voltage_offset_volts;
    bus_sum += std::round(v_meas / kBusVoltageLsbVolts);
    t += config_.bus_conv_time;
  }
  const double shunt_code = shunt_sum / config_.avg_count;
  const double bus_code = bus_sum / config_.avg_count;

  reg_shunt_ = clamp_i16(shunt_code);
  reg_bus_ = clamp_u16(bus_code);

  // Datasheet eq. 3: Current = (ShuntVoltage * CAL) / 2048.
  const double current_code =
      static_cast<double>(reg_shunt_) * reg_calibration_ / 2048.0;
  reg_current_ = clamp_i16(current_code);

  // Datasheet eq. 4: Power = (Current * BusVoltage) / 20000.
  const double power_code = static_cast<double>(reg_current_) *
                            static_cast<double>(reg_bus_) / 20000.0;
  reg_power_ = clamp_u16(power_code);

  ++conversions_completed_;
}

void Ina226::advance_to(sim::TimeNs t) {
  if (rail_current_ == nullptr || bus_voltage_ == nullptr) {
    throw std::logic_error("Ina226::advance_to: signals not bound");
  }
  if (t < now_) {
    throw std::invalid_argument("Ina226::advance_to: time went backwards");
  }
  while (next_conversion_start_ + update_interval() <= t) {
    complete_conversion(next_conversion_start_);
    next_conversion_start_ += update_interval();
  }
  now_ = t;
}

std::uint16_t Ina226::read_register(Ina226Register reg) const {
  switch (reg) {
    case Ina226Register::Configuration:
      return reg_config_;
    case Ina226Register::ShuntVoltage:
      return static_cast<std::uint16_t>(reg_shunt_);
    case Ina226Register::BusVoltage:
      return reg_bus_;
    case Ina226Register::Power:
      return reg_power_;
    case Ina226Register::Current:
      return static_cast<std::uint16_t>(reg_current_);
    case Ina226Register::Calibration:
      return reg_calibration_;
    case Ina226Register::MaskEnable:
      return 0;
    case Ina226Register::AlertLimit:
      return 0;
    case Ina226Register::ManufacturerId:
      return 0x5449;  // "TI"
    case Ina226Register::DieId:
      return 0x2260;
  }
  return 0xFFFF;
}

void Ina226::write_register(Ina226Register reg, std::uint16_t value) {
  switch (reg) {
    case Ina226Register::Configuration:
      reg_config_ = value;
      return;
    case Ina226Register::Calibration:
      reg_calibration_ = value;
      return;
    default:
      return;  // data registers are read-only; writes are ignored
  }
}

double Ina226::current_amps() const {
  return static_cast<double>(reg_current_) * config_.current_lsb_amps;
}

double Ina226::bus_voltage_volts() const {
  return static_cast<double>(reg_bus_) * kBusVoltageLsbVolts;
}

double Ina226::power_watts() const {
  return static_cast<double>(reg_power_) * power_lsb_watts();
}

double Ina226::shunt_voltage_volts() const {
  return static_cast<double>(reg_shunt_) * kShuntVoltageLsbVolts;
}

}  // namespace amperebleed::sensors
