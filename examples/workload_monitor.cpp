// Example: workload identification — a broader application of the channel
// (cf. the paper's related work on classifying computations). A single
// unprivileged observer watches the FPGA current and decides WHICH kind of
// victim is currently running: idle board, power virus, RSA-1024, AES-128,
// or DPU inference. Uses simple per-trace summary features and the
// nearest-centroid classifier.
//
// Also demonstrates the inference-quality layer (obs/quality.hpp): a
// DriftMonitor watches the live feature stream against the enrollment
// profile and the run ends with a quality verdict — is the monitor still
// operating on the data it was trained on?

#include <cstdio>
#include <memory>

#include "amperebleed/core/sampler.hpp"
#include "amperebleed/crypto/rsa.hpp"
#include "amperebleed/dnn/zoo.hpp"
#include "amperebleed/dpu/dpu.hpp"
#include "amperebleed/fpga/aes_circuit.hpp"
#include "amperebleed/fpga/power_virus.hpp"
#include "amperebleed/fpga/rsa_circuit.hpp"
#include "amperebleed/ml/baselines.hpp"
#include "amperebleed/obs/drift.hpp"
#include "amperebleed/obs/obs.hpp"
#include "amperebleed/obs/quality.hpp"
#include "amperebleed/stats/descriptive.hpp"
#include "amperebleed/util/rng.hpp"

namespace {

using namespace amperebleed;

constexpr const char* kClasses[] = {"idle", "power-virus", "rsa-1024",
                                    "aes-128", "dpu-inference"};

// Build the FPGA-rail activity for one workload class.
power::RailActivity make_activity(int cls, std::uint64_t seed,
                                  sim::TimeNs end) {
  switch (cls) {
    case 0:  // idle board
      return power::RailActivity();
    case 1: {  // power virus at a seed-dependent level
      fpga::PowerVirus virus;
      util::Rng rng(seed);
      virus.set_active_groups(sim::milliseconds(1),
                              40 + rng.uniform_below(80));
      return virus.activity();
    }
    case 2: {  // RSA-1024 encrypt loop, random key
      crypto::RsaKey key;
      key.modulus = crypto::rsa1024_test_modulus();
      key.private_exponent = crypto::exponent_with_hamming_weight(
          1024, 256 + (seed % 512), seed);
      fpga::RsaCircuit circuit(fpga::RsaCircuitConfig{}, std::move(key));
      return circuit.schedule(sim::milliseconds(1), end).activity;
    }
    case 3: {  // AES-128 stream
      crypto::Aes128::Key key{};
      util::Rng rng(seed);
      for (auto& b : key) b = static_cast<std::uint8_t>(rng.uniform_below(256));
      fpga::AesCircuit circuit(fpga::AesCircuitConfig{}, key);
      return circuit.schedule(sim::milliseconds(1), end, seed).activity;
    }
    default: {  // DPU running a random zoo model
      const auto names = dnn::zoo_model_names();
      const auto& name = names[seed % names.size()];
      dpu::DpuAccelerator dpu;
      return dpu.run(dnn::build_model(name), sim::milliseconds(1), end, seed)
          .activity;
    }
  }
}

// Trace summary features: mean, spread, peak-to-peak, successive-diff.
std::vector<double> features_of(const core::Trace& trace) {
  const auto s = stats::summarize(trace.values());
  return {s.mean, s.stddev, s.max - s.min,
          stats::mean_abs_successive_diff(trace.values())};
}

std::vector<double> observe(int cls, std::uint64_t seed) {
  const sim::TimeNs end = sim::seconds(3);
  soc::Soc soc(soc::zcu102_config(util::hash_combine(seed, 0x3c)));
  soc.add_activity(make_activity(cls, seed, end));
  soc.finalize();
  core::Sampler sampler(soc);
  core::SamplerConfig sc;
  sc.sample_count = 70;
  const auto trace = sampler.collect(
      {power::Rail::FpgaLogic, core::Quantity::Current}, sim::milliseconds(50),
      sc);
  return features_of(trace);
}

}  // namespace

int main() {
  std::puts("Workload monitor: what is the FPGA doing right now?\n");

  // Quality monitoring on: the sampler feeds the data-quality tallies and
  // the drift monitor below feeds /quality-style drift reports.
  obs::ObsConfig obs_config;
  obs_config.enabled = true;
  obs_config.quality = true;
  obs::init(obs_config);

  // Enroll 6 observations of each workload class.
  ml::Dataset train(4);
  for (int cls = 0; cls < 5; ++cls) {
    for (std::uint64_t rep = 0; rep < 6; ++rep) {
      train.add(observe(cls, 100 * static_cast<std::uint64_t>(cls) + rep),
                cls);
    }
  }
  ml::CentroidClassifier classifier;
  classifier.fit(train);
  std::printf("[train] %zu observations across %d workload classes\n\n",
              train.size(), 5);

  // Drift monitor over the live feature stream: window of one observation
  // per class, evaluated on every observation past the first window.
  obs::DriftConfig drift_config;
  drift_config.enabled = true;
  drift_config.name = "workload_monitor";
  drift_config.window = 5;
  drift_config.stride = 1;
  drift_config.confirm = 2;
  obs::DriftMonitor drift(obs::ReferenceProfile::from_dataset(train),
                          drift_config);

  // Classify fresh observations of every class.
  int correct = 0;
  for (int cls = 0; cls < 5; ++cls) {
    const auto f = observe(cls, 7'000 + static_cast<std::uint64_t>(cls));
    const int predicted = classifier.predict(f);
    drift.observe(f, predicted, 1.0);  // centroid verdicts carry no p
    std::printf("  running %-13s -> monitor says %-13s (%s)\n", kClasses[cls],
                kClasses[predicted], predicted == cls ? "correct" : "WRONG");
    if (predicted == cls) ++correct;
  }
  std::printf("\n%d / 5 workload types identified from curr1_input alone.\n",
              correct);

  // Live quality verdict: drift state of the feature stream plus the
  // acquisition-side data-quality tallies the sampler reported.
  const obs::DriftReport report = drift.report();
  std::printf("\n[quality] drift state: %s (%llu obs, %llu evals, "
              "psi_mean %.3f, class_p %.3f)\n",
              std::string(obs::drift_state_name(report.state)).c_str(),
              static_cast<unsigned long long>(report.observations),
              static_cast<unsigned long long>(report.evaluations),
              report.last.psi_mean, report.last.class_p);
  for (const auto& ch : obs::quality_hub().data_quality().channels()) {
    std::printf("[quality] channel %s: %llu traces, gap %.1f%%, clip %.1f%%, "
                "%llu warnings\n",
                ch.channel.c_str(),
                static_cast<unsigned long long>(ch.traces),
                100.0 * ch.gap_fraction(), 100.0 * ch.clip_rate(),
                static_cast<unsigned long long>(ch.warnings));
  }
  const bool healthy = report.state == obs::DriftState::Ok;
  std::printf("[quality] verdict: %s\n",
              healthy ? "monitor operating in-distribution"
                      : "monitor input has drifted from enrollment");

  return correct == 5 && healthy ? 0 : 1;
}
