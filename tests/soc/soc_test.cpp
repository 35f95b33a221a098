#include "amperebleed/soc/soc.hpp"

#include <gtest/gtest.h>

#include "amperebleed/obs/obs.hpp"
#include "amperebleed/util/strings.hpp"

namespace amperebleed::soc {
namespace {

TEST(SocConfig, Zcu102Defaults) {
  const SocConfig c = zcu102_config();
  const auto fpga = power::rail_index(power::Rail::FpgaLogic);
  EXPECT_DOUBLE_EQ(c.pdn[fpga].v_min, 0.825);
  EXPECT_DOUBLE_EQ(c.pdn[fpga].v_max, 0.876);
  const auto ddr = power::rail_index(power::Rail::Ddr);
  EXPECT_DOUBLE_EQ(c.pdn[ddr].v_nominal, 1.2);
  for (std::size_t i = 0; i < power::kRailCount; ++i) {
    EXPECT_GT(c.idle_current_amps[i], 0.0);
    EXPECT_DOUBLE_EQ(c.sensor[i].current_lsb_amps, 0.001);
    // The regulator trims to the idle draw so idle voltage == nominal.
    EXPECT_DOUBLE_EQ(c.pdn[i].idle_current_amps, c.idle_current_amps[i]);
  }
}

TEST(Soc, LifecycleEnforced) {
  Soc soc(zcu102_config());
  EXPECT_FALSE(soc.finalized());
  EXPECT_THROW(soc.advance_to(sim::seconds(1)), std::logic_error);
  EXPECT_THROW(static_cast<void>(soc.sensor(power::Rail::FpgaLogic)),
               std::logic_error);
  EXPECT_THROW(static_cast<void>(soc.rail_current(power::Rail::FpgaLogic)),
               std::logic_error);
  soc.finalize();
  EXPECT_TRUE(soc.finalized());
  EXPECT_THROW(soc.finalize(), std::logic_error);
  const power::RailActivity empty_activity;
  EXPECT_THROW(soc.add_activity(empty_activity), std::logic_error);
}

TEST(Soc, TimeIsMonotonic) {
  Soc soc(zcu102_config());
  soc.finalize();
  soc.advance_to(sim::seconds(1));
  EXPECT_EQ(soc.now(), sim::seconds(1));
  EXPECT_THROW(soc.advance_to(sim::milliseconds(999)), std::invalid_argument);
}

TEST(Soc, BaselineCurrentsWithoutWorkloads) {
  const SocConfig config = zcu102_config();
  Soc soc(config);
  soc.finalize();
  for (power::Rail rail : power::kAllRails) {
    EXPECT_DOUBLE_EQ(soc.rail_current(rail).value_at(sim::TimeNs{0}),
                     config.idle_current_amps[power::rail_index(rail)]);
  }
}

TEST(Soc, ActivityAddsToBaseline) {
  const SocConfig config = zcu102_config();
  Soc soc(config);
  power::RailActivity load;
  load.on(power::Rail::FpgaLogic).append(sim::milliseconds(10), 2.0);
  soc.add_activity(load);
  soc.finalize();
  const double idle =
      config.idle_current_amps[power::rail_index(power::Rail::FpgaLogic)];
  EXPECT_DOUBLE_EQ(
      soc.rail_current(power::Rail::FpgaLogic).value_at(sim::TimeNs{0}), idle);
  EXPECT_DOUBLE_EQ(
      soc.rail_current(power::Rail::FpgaLogic).value_at(sim::milliseconds(20)),
      idle + 2.0);
}

TEST(Soc, MultipleActivitiesAccumulate) {
  Soc soc(zcu102_config());
  power::RailActivity a;
  a.on(power::Rail::Ddr).append(sim::milliseconds(1), 1.0);
  power::RailActivity b;
  b.on(power::Rail::Ddr).append(sim::milliseconds(2), 0.5);
  soc.add_activity(a);
  soc.add_activity(b);
  soc.finalize();
  const double idle = zcu102_config().idle_current_amps[power::rail_index(
      power::Rail::Ddr)];
  EXPECT_DOUBLE_EQ(soc.rail_current(power::Rail::Ddr).value_at(sim::seconds(1)),
                   idle + 1.5);
}

TEST(Soc, VoltageStaysInsideStabilizerBand) {
  Soc soc(zcu102_config());
  power::RailActivity load;
  load.on(power::Rail::FpgaLogic).append(sim::milliseconds(1), 7.0);  // heavy
  soc.add_activity(load);
  soc.finalize();
  const auto& v = soc.rail_voltage(power::Rail::FpgaLogic);
  EXPECT_GE(v.min_over(sim::TimeNs{0}, sim::seconds(1)), 0.825);
  EXPECT_LE(v.max_over(sim::TimeNs{0}, sim::seconds(1)), 0.876);
  // And the droop is visible (voltage under load < idle voltage).
  EXPECT_LT(v.value_at(sim::milliseconds(100)), v.value_at(sim::TimeNs{0}));
}

TEST(Soc, SensorsReportThroughHwmon) {
  Soc soc(zcu102_config());
  power::RailActivity load;
  load.on(power::Rail::FpgaLogic).append(sim::microseconds(1), 1.0);
  soc.add_activity(load);
  soc.finalize();
  soc.advance_to(sim::milliseconds(40));

  const int idx = soc.hwmon_index(power::Rail::FpgaLogic);
  const auto r =
      soc.hwmon().fs().read(soc.hwmon().attr_path(idx, "curr1_input"), false);
  ASSERT_TRUE(r.ok());
  const auto ma = util::parse_ll(r.data);
  ASSERT_TRUE(ma.has_value());
  // Idle 0.52 A + 1.0 A load = ~1520 mA, within noise/quantization slack.
  EXPECT_NEAR(static_cast<double>(*ma), 1520.0, 30.0);
}

TEST(Soc, AuditTimestampsComeFromTheReadingSoc) {
  // Two platforms finalized back to back, as parallel victim runs do: each
  // one's reads carry its own virtual time, not the last-finalized SoC's.
  obs::init();
  obs::reset_data();
  Soc early(zcu102_config(1));
  Soc late(zcu102_config(2));
  early.finalize();
  late.finalize();
  early.advance_to(sim::milliseconds(5));
  late.advance_to(sim::milliseconds(9));
  const auto read = [](Soc& soc) {
    const int idx = soc.hwmon_index(power::Rail::FpgaLogic);
    return soc.hwmon().fs().read(soc.hwmon().attr_path(idx, "curr1_input"),
                                 false);
  };
  ASSERT_TRUE(read(early).ok());
  ASSERT_TRUE(read(late).ok());

  const auto events = obs::audit_log().events();
  obs::shutdown();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].t.ns, sim::milliseconds(5).ns);
  EXPECT_EQ(events[1].t.ns, sim::milliseconds(9).ns);
}

TEST(Soc, AllFourRailsGetHwmonDevices) {
  Soc soc(zcu102_config());
  soc.finalize();
  EXPECT_EQ(soc.hwmon().device_labels().size(), power::kRailCount);
  for (power::Rail rail : power::kAllRails) {
    EXPECT_GE(soc.hwmon_index(rail), 0);
  }
  EXPECT_EQ(soc.hwmon().find_device("ina226_u79"),
            soc.hwmon_index(power::Rail::FpgaLogic));
}

TEST(Soc, DeterministicSensorReadingsPerSeed) {
  const auto run = [](std::uint64_t seed) {
    Soc soc(zcu102_config(seed));
    power::RailActivity load;
    load.on(power::Rail::FpgaLogic).append(sim::milliseconds(5), 3.0);
    soc.add_activity(load);
    soc.finalize();
    soc.advance_to(sim::milliseconds(200));
    return soc.sensor(power::Rail::FpgaLogic).current_amps();
  };
  EXPECT_DOUBLE_EQ(run(7), run(7));
}

TEST(SocConfig, Vck190VariantMatchesTableOne) {
  const SocConfig c = vck190_config();
  const auto pl = power::rail_index(power::Rail::FpgaLogic);
  EXPECT_DOUBLE_EQ(c.pdn[pl].v_min, 0.775);
  EXPECT_DOUBLE_EQ(c.pdn[pl].v_max, 0.825);
  EXPECT_DOUBLE_EQ(c.pdn[pl].v_nominal, 0.800);
  EXPECT_GT(c.fabric.resources.luts, zcu102_config().fabric.resources.luts);
  for (std::size_t i = 0; i < power::kRailCount; ++i) {
    EXPECT_DOUBLE_EQ(c.pdn[i].idle_current_amps, c.idle_current_amps[i]);
  }
}

TEST(Soc, AttackWorksOnVersalToo) {
  // The paper's generalization claim: same sensors, same hwmon path, so the
  // current channel leaks identically on a Versal-class SoC.
  Soc soc(vck190_config(11));
  power::RailActivity load;
  load.on(power::Rail::FpgaLogic).append(sim::milliseconds(5), 2.0);
  soc.add_activity(load);
  soc.finalize();
  soc.advance_to(sim::milliseconds(80));
  const double amps = soc.sensor(power::Rail::FpgaLogic).current_amps();
  EXPECT_NEAR(amps, 0.71 + 2.0, 0.1);
  // And the fabric voltage sits inside the Versal band.
  const double volts = soc.sensor(power::Rail::FpgaLogic).bus_voltage_volts();
  EXPECT_GE(volts, 0.775 - 0.00125);
  EXPECT_LE(volts, 0.825 + 0.00125);
}

TEST(Soc, I2cBusCarriesTheSameSensors) {
  Soc soc(zcu102_config(21));
  power::RailActivity load;
  load.on(power::Rail::FpgaLogic).append(sim::microseconds(1), 1.0);
  soc.add_activity(load);
  soc.finalize();
  soc.advance_to(sim::milliseconds(80));

  auto& bus = soc.i2c();
  // Four INAs at 0x40..0x43 (rail order).
  EXPECT_EQ(bus.scan().size(), power::kRailCount);
  const auto fpga_addr = static_cast<std::uint8_t>(
      Soc::kIna226BaseAddress + power::rail_index(power::Rail::FpgaLogic));
  // Raw CURRENT register via I2C == hwmon's curr1_input (same registers).
  const auto code = static_cast<std::int16_t>(bus.read_word(fpga_addr, 0x04));
  const double hwmon_ma = soc.sensor(power::Rail::FpgaLogic).current_amps() * 1e3;
  EXPECT_DOUBLE_EQ(static_cast<double>(code), hwmon_ma);
  EXPECT_THROW(bus.read_word(0x50, 0x00), sensors::I2cError);
}

TEST(Soc, SysmonOptInProvidesTemperature) {
  SocConfig config = zcu102_config(22);
  config.with_sysmon = true;
  Soc soc(config);
  power::RailActivity load;
  load.on(power::Rail::FpgaLogic).append(sim::milliseconds(1), 5.0);
  soc.add_activity(load);
  soc.finalize();
  soc.advance_to(sim::seconds(30));
  // 5 A * 0.85 V ~ 4.2 W above idle -> noticeably above ambient by 30 s.
  const double temp = soc.sysmon().temperature_celsius();
  EXPECT_GT(temp, config.thermal.ambient_celsius + 2.0);
  EXPECT_LT(temp, 95.0);
  // The device is visible through hwmon as well.
  const auto r = soc.hwmon().fs().read(
      soc.hwmon().attr_path(soc.sysmon_hwmon_index(), "temp1_input"), false);
  ASSERT_TRUE(r.ok());
}

TEST(Soc, SysmonDisabledByDefault) {
  Soc soc(zcu102_config(23));
  soc.finalize();
  EXPECT_THROW(static_cast<void>(soc.sysmon()), std::logic_error);
  EXPECT_THROW(static_cast<void>(soc.die_temperature()), std::logic_error);
  EXPECT_THROW(static_cast<void>(soc.sysmon_hwmon_index()), std::logic_error);
}

TEST(Soc, FabricDeploymentsTracked) {
  Soc soc(zcu102_config());
  soc.fabric().deploy({"victim", {1000, 1000, 10, 1}, true});
  EXPECT_TRUE(soc.fabric().is_deployed("victim"));
}

}  // namespace
}  // namespace amperebleed::soc
