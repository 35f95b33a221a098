#include "amperebleed/hwmon/hwmon.hpp"

#include <cmath>
#include <memory>

#include "amperebleed/obs/obs.hpp"
#include "amperebleed/util/strings.hpp"

namespace amperebleed::hwmon {

namespace {

constexpr const char* kClassDir = "/sys/class/hwmon";

// The ina2xx driver maps a requested update_interval (ms) to the nearest
// supported averaging count at the configured conversion times.
constexpr std::uint16_t kAvgChoices[] = {1, 4, 16, 64, 128, 256, 512, 1024};

std::uint16_t avg_for_interval(double interval_ms, double per_sample_ms) {
  std::uint16_t best = kAvgChoices[0];
  double best_err = 1e300;
  for (std::uint16_t avg : kAvgChoices) {
    const double err = std::abs(avg * per_sample_ms - interval_ms);
    if (err < best_err) {
      best_err = err;
      best = avg;
    }
  }
  return best;
}

}  // namespace

HwmonSubsystem::HwmonSubsystem(HwmonPolicy policy) : policy_(policy) {
  fs_.mkdirs(kClassDir);
}

long long HwmonSubsystem::harden(const std::string& path, long long raw,
                                 double lsb_units) {
  const auto degrade = [&](long long value) {
    if (policy_.quantize_factor > 1) {
      const double q = lsb_units * policy_.quantize_factor;
      value = static_cast<long long>(
          std::llround(std::round(static_cast<double>(value) / q) * q));
      obs::count("hwmon.defense.quantized_reads");
    }
    if (policy_.noise_lsb > 0.0) {
      value += static_cast<long long>(std::llround(
          defense_rng_.uniform(-policy_.noise_lsb, policy_.noise_lsb) *
          lsb_units));
      obs::count("hwmon.defense.noised_reads");
    }
    return value;
  };

  // Rate limiting: serve the cached (already-degraded) value while fresh,
  // so tight polling cannot average the injected noise away.
  if (policy_.min_read_interval.ns > 0 && fs_.has_clock()) {
    auto& entry = read_cache_[path];
    const sim::TimeNs now = fs_.now();
    if (entry.valid && now < entry.at + policy_.min_read_interval) {
      obs::count("hwmon.defense.rate_limited_hits");
      return entry.value;
    }
    entry = CachedRead{now, degrade(raw), true};
    return entry.value;
  }
  return degrade(raw);
}

std::string HwmonSubsystem::device_path(int index) const {
  std::string path = kClassDir;
  path += "/hwmon";
  path += std::to_string(index);
  return path;
}

std::string HwmonSubsystem::attr_path(int index, std::string_view attr) const {
  // Built by appending: the sampler asks for a path on every read.
  std::string path = device_path(index);
  path += '/';
  path += attr;
  return path;
}

int HwmonSubsystem::register_ina226(const std::string& label,
                                    sensors::Ina226& sensor,
                                    std::function<void()> pre_access) {
  const int index = static_cast<int>(devices_.size());
  devices_.push_back(Device{label});
  const std::string dir = device_path(index);
  fs_.mkdirs(dir);

  sensors::Ina226* dev = &sensor;
  auto hook = std::make_shared<std::function<void()>>(std::move(pre_access));
  const auto with_sync = [hook](auto&& produce) {
    return [hook, produce]() {
      if (*hook) (*hook)();
      return produce();
    };
  };

  fs_.add_file(dir + "/name", 0444, [label]() { return label + "\n"; });

  // Measurement attributes go through harden() so the driver-level
  // defenses (quantize/noise/rate-limit) apply uniformly. `lsb_units` is
  // the sensor's native LSB expressed in the attribute's output unit.
  const auto add_measurement = [&](const std::string& attr, double lsb_units,
                                   auto producer) {
    const std::string path = dir + "/" + attr;
    fs_.add_file(path, measurement_mode(),
                 with_sync([this, path, lsb_units, producer]() {
                   const long long raw =
                       static_cast<long long>(std::llround(producer()));
                   return util::format("%lld\n",
                                       harden(path, raw, lsb_units));
                 }));
    measurement_attrs_.push_back(path);
  };

  // Measurements, formatted the way the ina2xx hwmon driver does.
  add_measurement("curr1_input", dev->current_lsb_amps() * 1e3,
                  [dev]() { return dev->current_amps() * 1e3; });
  add_measurement("in0_input",  // shunt voltage, mV
                  sensors::Ina226::kShuntVoltageLsbVolts * 1e3,
                  [dev]() { return dev->shunt_voltage_volts() * 1e3; });
  add_measurement("in1_input",  // bus voltage, mV
                  sensors::Ina226::kBusVoltageLsbVolts * 1e3,
                  [dev]() { return dev->bus_voltage_volts() * 1e3; });
  add_measurement("power1_input",  // microwatts
                  dev->power_lsb_watts() * 1e6,
                  [dev]() { return dev->power_watts() * 1e6; });

  // update_interval: readable by all, writable by root only (0644).
  fs_.add_file(
      dir + "/update_interval", 0644,
      with_sync([dev]() {
        return util::format(
            "%lld\n",
            static_cast<long long>(std::llround(dev->update_interval().millis())));
      }),
      [dev](std::string_view text) {
        const auto ms = util::parse_ll(text);
        if (!ms || *ms <= 0) return false;
        const double per_sample_ms = dev->config().shunt_conv_time.millis() +
                                     dev->config().bus_conv_time.millis();
        dev->set_timing(
            avg_for_interval(static_cast<double>(*ms), per_sample_ms),
            dev->config().shunt_conv_time, dev->config().bus_conv_time);
        return true;
      });

  // shunt_resistor in micro-ohms, root-writable like the real driver.
  fs_.add_file(dir + "/shunt_resistor", 0644, [dev]() {
    return util::format("%lld\n",
                        static_cast<long long>(
                            std::llround(dev->config().shunt_ohms * 1e6)));
  });

  return index;
}

int HwmonSubsystem::register_sysmon(const std::string& label,
                                    sensors::Sysmon& sensor,
                                    std::function<void()> pre_access) {
  const int index = static_cast<int>(devices_.size());
  devices_.push_back(Device{label});
  const std::string dir = device_path(index);
  fs_.mkdirs(dir);

  sensors::Sysmon* dev = &sensor;
  auto hook = std::make_shared<std::function<void()>>(std::move(pre_access));

  fs_.add_file(dir + "/name", 0444, [label]() { return label + "\n"; });
  const std::string temp_path = dir + "/temp1_input";
  const double temp_lsb_mc = sensor.config().temp_scale * 1e3;
  fs_.add_file(temp_path, measurement_mode(),
               [this, temp_path, temp_lsb_mc, hook, dev]() {
                 if (*hook) (*hook)();
                 // hwmon convention: millidegrees Celsius.
                 const long long raw = static_cast<long long>(
                     std::llround(dev->temperature_celsius() * 1e3));
                 return util::format("%lld\n",
                                     harden(temp_path, raw, temp_lsb_mc));
               });
  measurement_attrs_.push_back(temp_path);
  return index;
}

std::optional<int> HwmonSubsystem::find_device(std::string_view label) const {
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    if (devices_[i].label == label) return static_cast<int>(i);
  }
  return std::nullopt;
}

std::vector<std::string> HwmonSubsystem::device_labels() const {
  std::vector<std::string> labels;
  labels.reserve(devices_.size());
  for (const auto& d : devices_) labels.push_back(d.label);
  return labels;
}

void HwmonSubsystem::set_policy(HwmonPolicy policy) {
  policy_ = policy;
  for (const auto& path : measurement_attrs_) {
    fs_.chmod(path, measurement_mode());
  }
}

}  // namespace amperebleed::hwmon
