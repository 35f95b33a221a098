#include "amperebleed/sensors/sysmon.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace amperebleed::sensors {

Sysmon::Sysmon(SysmonConfig config, std::uint64_t seed)
    : config_(config), rng_(seed) {
  if (config_.conversion_period.ns <= 0) {
    throw std::invalid_argument("Sysmon: conversion period must be > 0");
  }
  if (config_.temp_scale <= 0.0) {
    throw std::invalid_argument("Sysmon: temperature scale must be > 0");
  }
}

void Sysmon::bind(const sim::PiecewiseConstant* temperature_celsius) {
  if (temperature_celsius == nullptr) {
    throw std::invalid_argument("Sysmon::bind: null signal");
  }
  temperature_ = temperature_celsius;
  cursor_ = 0;
}

void Sysmon::advance_to(sim::TimeNs t) {
  if (temperature_ == nullptr) {
    throw std::logic_error("Sysmon::advance_to: signal not bound");
  }
  if (t < now_) {
    throw std::invalid_argument("Sysmon::advance_to: time went backwards");
  }
  while (next_conversion_ + config_.conversion_period <= t) {
    const sim::TimeNs window_end =
        next_conversion_ + config_.conversion_period;
    const double true_temp =
        temperature_->mean(next_conversion_, window_end, cursor_);
    const double noisy =
        true_temp + rng_.gaussian(0.0, config_.temp_noise_celsius);
    const double code =
        std::round((noisy - config_.temp_offset) / config_.temp_scale);
    code_ = static_cast<std::uint16_t>(std::clamp(code, 0.0, 65535.0));
    ++conversions_;
    next_conversion_ = window_end;
  }
  now_ = t;
}

double Sysmon::temperature_celsius() const {
  return static_cast<double>(code_) * config_.temp_scale +
         config_.temp_offset;
}

}  // namespace amperebleed::sensors
