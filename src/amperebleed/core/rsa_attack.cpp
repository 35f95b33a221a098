#include "amperebleed/core/rsa_attack.hpp"

#include <algorithm>
#include <utility>

#include "amperebleed/core/sampler.hpp"
#include "amperebleed/crypto/rsa.hpp"
#include "amperebleed/sensors/ina226.hpp"
#include "amperebleed/soc/soc.hpp"
#include "amperebleed/stats/separability.hpp"
#include "amperebleed/util/rng.hpp"

namespace amperebleed::core {

std::vector<std::size_t> default_hamming_weights() {
  return crypto::paper_hamming_weight_schedule(1024);
}

RsaAttackResult run_rsa_attack(const RsaAttackConfig& config) {
  RsaAttackResult result;
  const std::vector<std::size_t> weights = config.hamming_weights.empty()
                                               ? default_hamming_weights()
                                               : config.hamming_weights;

  for (std::size_t k = 0; k < weights.size(); ++k) {
    const std::size_t hw = weights[k];

    crypto::RsaKey key;
    key.modulus = crypto::rsa1024_test_modulus();
    key.private_exponent = crypto::exponent_with_hamming_weight(
        config.circuit.key_bits, hw, util::hash_combine(config.seed, hw));
    fpga::RsaCircuit circuit(config.circuit, std::move(key));

    // Victim: encrypt back-to-back for the whole observation window. The
    // attacker starts polling only once the sensor registers reflect
    // steady-state encryption (a few conversion intervals after the circuit
    // starts), as in the paper's "during the current collecting" setup.
    const sim::TimeNs circuit_start = sim::milliseconds(50);
    const sim::TimeNs start = sim::milliseconds(200);
    const sim::TimeNs end{
        start.ns +
        config.sample_period.ns *
            static_cast<std::int64_t>(config.sample_count) +
        sim::milliseconds(100).ns};
    auto schedule = circuit.schedule(circuit_start, end);

    soc::Soc soc(soc::zcu102_config(util::hash_combine(config.seed, k)));
    soc.fabric().deploy(circuit.descriptor());
    soc.add_activity(std::move(schedule.activity));
    soc.finalize();

    // Attacker: 1 kHz unprivileged polling of current and power.
    Sampler sampler(soc);
    SamplerConfig sc;
    sc.period = config.sample_period;
    sc.sample_count = config.sample_count;
    const auto traces = sampler.collect_multi(
        {{power::Rail::FpgaLogic, Quantity::Current},
         {power::Rail::FpgaLogic, Quantity::Power}},
        start, sc);

    RsaKeyObservation obs;
    obs.hamming_weight = hw;
    obs.encryptions_observed = schedule.encryption_count;
    obs.current_samples_ma.assign(traces[0].values().begin(),
                                  traces[0].values().end());
    for (double uw : traces[1].values()) {
      obs.power_samples_mw.push_back(uw * 1e-3);
    }
    obs.current_ma = stats::summarize(obs.current_samples_ma);
    obs.power_mw = stats::summarize(obs.power_samples_mw);
    result.keys.push_back(std::move(obs));
  }

  // Leave-one-out Hamming-weight estimation + residual search space.
  const sensors::Ina226Config sensor_defaults{};
  const double update_interval_s =
      static_cast<double>(sensor_defaults.avg_count) *
      (sensor_defaults.shunt_conv_time.seconds() +
       sensor_defaults.bus_conv_time.seconds());
  const double trace_span_s =
      config.sample_period.seconds() * static_cast<double>(config.sample_count);
  result.independent_samples_per_key = std::max<std::size_t>(
      1, static_cast<std::size_t>(trace_span_s / update_interval_s));
  result.log2_full_search_space =
      static_cast<double>(config.circuit.key_bits);
  if (result.keys.size() >= 3) {
    for (std::size_t k = 0; k < result.keys.size(); ++k) {
      std::vector<HwCalibrationPoint> calibration;
      for (std::size_t j = 0; j < result.keys.size(); ++j) {
        if (j == k) continue;
        calibration.push_back(HwCalibrationPoint{
            result.keys[j].hamming_weight, result.keys[j].current_ma.mean});
      }
      const auto estimator = HammingWeightEstimator::fit(
          calibration, config.circuit.key_bits);
      auto& key = result.keys[k];
      key.loo_estimate = estimator.estimate(
          key.current_ma, result.independent_samples_per_key);
      key.log2_residual_search_space = log2_search_space(
          config.circuit.key_bits, key.loo_estimate.ci_low,
          key.loo_estimate.ci_high);
    }
  }

  std::vector<std::vector<double>> current_classes;
  std::vector<std::vector<double>> power_classes;
  for (const auto& k : result.keys) {
    current_classes.push_back(k.current_samples_ma);
    power_classes.push_back(k.power_samples_mw);
  }
  result.current_group_ids = stats::group_indistinguishable(
      current_classes, config.separability_accuracy);
  result.power_group_ids = stats::group_indistinguishable(
      power_classes, config.separability_accuracy);
  result.current_groups =
      result.current_group_ids.empty() ? 0 : result.current_group_ids.back() + 1;
  result.power_groups =
      result.power_group_ids.empty() ? 0 : result.power_group_ids.back() + 1;
  return result;
}

}  // namespace amperebleed::core
