#include "amperebleed/soc/soc.hpp"

#include <stdexcept>

#include "amperebleed/sensors/board.hpp"
#include "amperebleed/util/rng.hpp"

namespace amperebleed::soc {

SocConfig zcu102_config(std::uint64_t seed) {
  SocConfig c;
  c.seed = seed;

  // Rail order: FpdCpu, LpdCpu, FpgaLogic, Ddr.
  c.idle_current_amps = {0.78, 0.21, 0.52, 0.63};

  for (std::size_t i = 0; i < power::kRailCount; ++i) {
    auto& pdn = c.pdn[i];
    pdn.idle_current_amps = c.idle_current_amps[i];
  }
  // FPGA rail band per Table I (Zynq UltraScale+).
  c.pdn[power::rail_index(power::Rail::FpgaLogic)].v_nominal = 0.850;
  c.pdn[power::rail_index(power::Rail::FpgaLogic)].v_min = 0.825;
  c.pdn[power::rail_index(power::Rail::FpgaLogic)].v_max = 0.876;
  // PS domains regulate around the same 0.85 V class.
  c.pdn[power::rail_index(power::Rail::FpdCpu)].v_nominal = 0.850;
  c.pdn[power::rail_index(power::Rail::LpdCpu)].v_nominal = 0.850;
  // DDR4 rail.
  auto& ddr = c.pdn[power::rail_index(power::Rail::Ddr)];
  ddr.v_nominal = 1.200;
  ddr.v_min = 1.140;
  ddr.v_max = 1.260;

  for (std::size_t i = 0; i < power::kRailCount; ++i) {
    c.sensor[i].shunt_ohms =
        sensors::zcu102_sensitive_sensors()[i].shunt_ohms;
    c.sensor[i].current_lsb_amps = 0.001;  // the hwmon-visible 1 mA LSB
  }
  return c;
}

SocConfig vck190_config(std::uint64_t seed) {
  SocConfig c = zcu102_config(seed);
  // Versal fabric: bigger device, lower-voltage rail (Table I), beefier A72
  // application cluster.
  c.fabric.resources = fpga::FabricResources{
      .luts = 899'840,
      .flip_flops = 1'799'680,
      .dsp_slices = 1'968,
      .bram_blocks = 967,
  };
  auto& pl = c.pdn[power::rail_index(power::Rail::FpgaLogic)];
  pl.v_nominal = 0.800;
  pl.v_min = 0.775;
  pl.v_max = 0.825;
  c.pdn[power::rail_index(power::Rail::FpdCpu)].v_nominal = 0.880;
  c.idle_current_amps = {1.05, 0.26, 0.71, 0.88};
  for (std::size_t i = 0; i < power::kRailCount; ++i) {
    c.pdn[i].idle_current_amps = c.idle_current_amps[i];
  }
  return c;
}

Soc::Soc(SocConfig config)
    : config_(config),
      fabric_(config.fabric),
      pdn_{power::PdnModel(config.pdn[0]), power::PdnModel(config.pdn[1]),
           power::PdnModel(config.pdn[2]), power::PdnModel(config.pdn[3])},
      hwmon_(std::make_unique<hwmon::HwmonSubsystem>(config.hwmon_policy)) {}

void Soc::add_activity(const power::RailActivity& activity) {
  if (finalized_) {
    throw std::logic_error("Soc::add_activity: platform already finalized");
  }
  pending_ = has_pending_ ? pending_ + activity : activity;
  has_pending_ = true;
}

void Soc::finalize() {
  if (finalized_) throw std::logic_error("Soc::finalize: already finalized");

  // The rate-limiting defense needs the platform clock, and so do the
  // access-audit records of this platform's reads: their virtual
  // timestamps are what make the read-rate detector's windows meaningful.
  hwmon_->set_clock([this]() { return now_; });

  for (std::size_t i = 0; i < power::kRailCount; ++i) {
    // Total rail current = board baseline + workload activity.
    sim::PiecewiseConstant total = pending_.current[i];
    sim::PiecewiseConstant baseline(config_.idle_current_amps[i]);
    rail_current_[i] = total + baseline;
    rail_voltage_[i] = pdn_[i].voltage_signal(rail_current_[i]);

    sensors_[i] = std::make_unique<sensors::Ina226>(
        config_.sensor[i], config_.noise[i],
        util::hash_combine(config_.seed, 0x1a226000 + i));
    sensors_[i]->bind(&rail_current_[i], &rail_voltage_[i]);

    const auto rail = static_cast<power::Rail>(i);
    sensors::Ina226* dev = sensors_[i].get();
    hwmon_index_[i] = hwmon_->register_ina226(
        std::string(sensors::zcu102_sensor(rail).designator), *dev,
        [this, dev]() { dev->advance_to(now_); });

    // Raw register path: the same sensor behind the board I2C bus.
    i2c_adapters_.push_back(std::make_unique<sensors::Ina226I2cAdapter>(
        *dev, [this, dev]() { dev->advance_to(now_); }));
    i2c_.attach(static_cast<std::uint8_t>(kIna226BaseAddress + i),
                *i2c_adapters_.back());
  }
  if (config_.with_sysmon) {
    // Total die power (first order: rail current x nominal rail voltage)
    // drives the thermal model; the SYSMON digitizes the result.
    sim::PiecewiseConstant total_power(0.0);
    for (std::size_t i = 0; i < power::kRailCount; ++i) {
      sim::PiecewiseConstant scaled = rail_current_[i];
      scaled.scale(config_.pdn[i].v_nominal);
      total_power = total_power + scaled;
    }
    sim::TimeNs horizon = config_.thermal_margin;
    for (std::size_t i = 0; i < power::kRailCount; ++i) {
      const sim::TimeNs last = rail_current_[i].last_change();
      if (last + config_.thermal_margin > horizon) {
        horizon = last + config_.thermal_margin;
      }
    }
    die_temperature_ =
        power::ThermalModel(config_.thermal).temperature_signal(total_power,
                                                                horizon);
    sysmon_ = std::make_unique<sensors::Sysmon>(
        config_.sysmon, util::hash_combine(config_.seed, 0x5a5));
    sysmon_->bind(&die_temperature_);
    sensors::Sysmon* ams = sysmon_.get();
    sysmon_hwmon_index_ = hwmon_->register_sysmon(
        "ams", *ams, [this, ams]() { ams->advance_to(now_); });
  }

  finalized_ = true;
}

sensors::Sysmon& Soc::sysmon() {
  if (!finalized_ || !sysmon_) {
    throw std::logic_error("Soc::sysmon: unavailable (not finalized or disabled)");
  }
  sysmon_->advance_to(now_);
  return *sysmon_;
}

int Soc::sysmon_hwmon_index() const {
  if (!finalized_ || sysmon_hwmon_index_ < 0) {
    throw std::logic_error("Soc::sysmon_hwmon_index: unavailable");
  }
  return sysmon_hwmon_index_;
}

const sim::PiecewiseConstant& Soc::die_temperature() const {
  if (!finalized_ || !sysmon_) {
    throw std::logic_error("Soc::die_temperature: unavailable");
  }
  return die_temperature_;
}

sensors::I2cBus& Soc::i2c() {
  if (!finalized_) throw std::logic_error("Soc::i2c: not finalized");
  return i2c_;
}

void Soc::advance_to(sim::TimeNs t) {
  if (!finalized_) throw std::logic_error("Soc::advance_to: not finalized");
  if (t < now_) {
    throw std::invalid_argument("Soc::advance_to: time went backwards");
  }
  now_ = t;
}

sensors::Ina226& Soc::sensor(power::Rail rail) {
  if (!finalized_) throw std::logic_error("Soc::sensor: not finalized");
  auto& dev = *sensors_[power::rail_index(rail)];
  dev.advance_to(now_);
  return dev;
}

int Soc::hwmon_index(power::Rail rail) const {
  if (!finalized_) throw std::logic_error("Soc::hwmon_index: not finalized");
  return hwmon_index_[power::rail_index(rail)];
}

const sim::PiecewiseConstant& Soc::rail_current(power::Rail rail) const {
  if (!finalized_) throw std::logic_error("Soc::rail_current: not finalized");
  return rail_current_[power::rail_index(rail)];
}

const sim::PiecewiseConstant& Soc::rail_voltage(power::Rail rail) const {
  if (!finalized_) throw std::logic_error("Soc::rail_voltage: not finalized");
  return rail_voltage_[power::rail_index(rail)];
}

const power::PdnModel& Soc::pdn(power::Rail rail) const {
  return pdn_[power::rail_index(rail)];
}

}  // namespace amperebleed::soc
