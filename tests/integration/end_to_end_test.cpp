// End-to-end scenarios wiring the whole stack together the way the paper's
// experiments do: victim circuits -> PDN -> INA226 -> hwmon -> unprivileged
// sampler -> analysis.

#include <gtest/gtest.h>

#include <memory>

#include "amperebleed/core/sampler.hpp"
#include "amperebleed/crypto/rsa.hpp"
#include "amperebleed/dnn/zoo.hpp"
#include "amperebleed/dpu/dpu.hpp"
#include "amperebleed/fpga/power_virus.hpp"
#include "amperebleed/fpga/ring_oscillator.hpp"
#include "amperebleed/fpga/rsa_circuit.hpp"
#include "amperebleed/soc/soc.hpp"
#include "amperebleed/stats/correlation.hpp"
#include "amperebleed/stats/descriptive.hpp"

namespace amperebleed {
namespace {

TEST(EndToEnd, PowerVirusStepIsVisibleToUnprivilegedAttacker) {
  fpga::PowerVirus virus;
  virus.set_active_groups(sim::seconds(1), 80);

  soc::Soc soc(soc::zcu102_config(1));
  soc.fabric().deploy(virus.descriptor());
  soc.add_activity(virus.activity());
  soc.finalize();

  core::Sampler attacker(soc);
  core::SamplerConfig sc;
  sc.sample_count = 20;
  const core::Channel fpga_current{power::Rail::FpgaLogic,
                                   core::Quantity::Current};
  const auto before = attacker.collect(fpga_current, sim::milliseconds(40), sc);
  const auto after = attacker.collect(fpga_current, sim::seconds(2), sc);
  const double delta = stats::mean(after.values()) -
                       stats::mean(before.values());
  // 80 groups x 40 mA = 3.2 A expected step.
  EXPECT_NEAR(delta, 3200.0, 150.0);
}

TEST(EndToEnd, RoSeesAlmostNothingOnStabilizedPdn) {
  // The headline comparison: same victim step, crafted-circuit RO vs hwmon
  // current. The RO's relative response is orders of magnitude smaller.
  fpga::PowerVirus virus;
  virus.set_active_groups(sim::seconds(1), 160);

  soc::Soc soc(soc::zcu102_config(2));
  soc.fabric().deploy(virus.descriptor());
  soc.add_activity(virus.activity());
  soc.finalize();

  fpga::RingOscillatorBank ro(fpga::RingOscillatorConfig{}, 3);
  const auto& v = soc.rail_voltage(power::Rail::FpgaLogic);
  double ro_idle = 0.0;
  double ro_loaded = 0.0;
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    ro_idle += ro.sample(v, sim::milliseconds(100 + i));
    ro_loaded += ro.sample(v, sim::milliseconds(1500 + i));
  }
  const double ro_delta = (ro_idle - ro_loaded) / n;
  // Full 6.4 A step: RO count shift ~ 6.4A * 0.1875 mOhm * 20435/V ~ 24.5.
  EXPECT_GT(ro_delta, 5.0);
  EXPECT_LT(ro_delta, 60.0);
  // Current channel: 6400 LSB step vs RO's ~25 counts -> ratio >> 100.
  EXPECT_GT(6400.0 / ro_delta, 100.0);
}

TEST(EndToEnd, DpuInferencePeriodVisibleInFpgaCurrent) {
  const dnn::Model model = dnn::build_model("MobileNet-V1");
  dpu::DpuAccelerator dpu;
  auto run = dpu.run(model, sim::TimeNs{0}, sim::seconds(3), 4);
  ASSERT_GT(run.inference_count, 10u);

  soc::Soc soc(soc::zcu102_config(3));
  soc.fabric().deploy(dpu.descriptor());
  soc.add_activity(run.activity);
  soc.finalize();

  core::Sampler attacker(soc);
  core::SamplerConfig sc;
  sc.sample_count = 70;
  const auto trace = attacker.collect(
      {power::Rail::FpgaLogic, core::Quantity::Current}, sim::milliseconds(40),
      sc);
  // Inference activity modulates the trace well beyond noise.
  const auto s = stats::summarize(trace.values());
  EXPECT_GT(s.max - s.min, 100.0);  // >100 mA swing
}

TEST(EndToEnd, RsaHammingWeightOrderingSurvivesWholePipeline) {
  const auto run_key = [](std::size_t hw, std::uint64_t seed) {
    crypto::RsaKey key;
    key.modulus = crypto::rsa1024_test_modulus();
    key.private_exponent = crypto::exponent_with_hamming_weight(1024, hw, seed);
    fpga::RsaCircuit circuit(fpga::RsaCircuitConfig{}, std::move(key));
    auto soc = std::make_unique<soc::Soc>(soc::zcu102_config(seed));
    soc->fabric().deploy(circuit.descriptor());
    soc->add_activity(
        circuit.schedule(sim::TimeNs{0}, sim::milliseconds(800)).activity);
    soc->finalize();
    core::Sampler attacker(*soc);
    core::SamplerConfig sc;
    sc.sample_count = 500;
    sc.period = sim::milliseconds(1);
    const auto trace = attacker.collect(
        {power::Rail::FpgaLogic, core::Quantity::Current},
        sim::milliseconds(40), sc);
    return stats::mean(trace.values());
  };
  const double low = run_key(64, 10);
  const double mid = run_key(512, 11);
  const double high = run_key(1024, 12);
  EXPECT_LT(low, mid);
  EXPECT_LT(mid, high);
}

TEST(EndToEnd, MitigationKillsTheAttackButNotRootMonitoring) {
  soc::SocConfig config = soc::zcu102_config(5);
  config.hwmon_policy.unprivileged_sensor_read = false;
  soc::Soc soc(config);
  soc.finalize();
  core::Sampler attacker(soc);
  core::SamplerConfig sc;
  sc.sample_count = 3;
  EXPECT_THROW(attacker.collect({power::Rail::FpgaLogic,
                                 core::Quantity::Current},
                                sim::milliseconds(40), sc),
               core::SamplingError);
  core::Sampler monitor(soc, core::Principal::root());
  EXPECT_NO_THROW(monitor.collect(
      {power::Rail::FpgaLogic, core::Quantity::Current},
      sim::milliseconds(40), sc));
}

TEST(EndToEnd, EverythingFitsOnTheZcu102Together) {
  // Victim DPU + RSA + attacker-visible RO baseline all deploy at once.
  soc::Soc soc(soc::zcu102_config(6));
  dpu::DpuAccelerator dpu;
  fpga::RingOscillatorBank ro(fpga::RingOscillatorConfig{}, 1);
  crypto::RsaKey key;
  key.modulus = crypto::rsa1024_test_modulus();
  key.private_exponent = crypto::exponent_with_hamming_weight(1024, 512, 1);
  fpga::RsaCircuit rsa(fpga::RsaCircuitConfig{}, std::move(key));

  EXPECT_NO_THROW(soc.fabric().deploy(dpu.descriptor()));
  EXPECT_NO_THROW(soc.fabric().deploy(ro.descriptor()));
  EXPECT_NO_THROW(soc.fabric().deploy(rsa.descriptor()));
  EXPECT_TRUE(rsa.descriptor().encrypted);
}

}  // namespace
}  // namespace amperebleed
