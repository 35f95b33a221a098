#include "amperebleed/core/fingerprint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "amperebleed/core/features.hpp"
#include "amperebleed/core/sampler.hpp"
#include "amperebleed/dnn/zoo.hpp"
#include "amperebleed/soc/process.hpp"
#include "amperebleed/soc/soc.hpp"
#include "amperebleed/util/rng.hpp"

namespace amperebleed::core {
namespace {

FingerprintConfig small_config() {
  FingerprintConfig c;
  c.model_limit = 4;          // MobileNet-V1 variants + MobileNet-V2
  c.traces_per_model = 6;
  c.folds = 3;
  c.trace_duration = sim::seconds(2);
  c.durations_s = {1.0, 2.0};
  c.forest.n_trees = 25;
  c.seed = 5;
  return c;
}

TEST(Fingerprint, Table3ChannelsMatchPaperRows) {
  const auto& channels = table3_channels();
  ASSERT_EQ(channels.size(), 6u);
  EXPECT_EQ(channel_name(channels[0]), "current(fpd_cpu)");
  EXPECT_EQ(channel_name(channels[1]), "current(lpd_cpu)");
  EXPECT_EQ(channel_name(channels[2]), "current(ddr)");
  EXPECT_EQ(channel_name(channels[3]), "current(fpga_logic)");
  EXPECT_EQ(channel_name(channels[4]), "voltage(fpga_logic)");
  EXPECT_EQ(channel_name(channels[5]), "power(fpga_logic)");
}

TEST(Fingerprint, CollectionShapesAreConsistent) {
  const auto config = small_config();
  const auto traces = collect_fingerprint_traces(config);
  EXPECT_EQ(traces.model_names.size(), 4u);
  EXPECT_EQ(traces.per_channel.size(), 6u);
  EXPECT_EQ(traces.samples_per_trace, 57u);  // 2 s / 35 ms
  for (const auto& d : traces.per_channel) {
    EXPECT_EQ(d.size(), 4u * 6u);
    EXPECT_EQ(d.feature_count(), traces.samples_per_trace);
    EXPECT_EQ(d.class_count(), 4);
  }
}

TEST(Fingerprint, FpgaCurrentSeparatesModels) {
  const auto config = small_config();
  const auto traces = collect_fingerprint_traces(config);
  const auto result = evaluate_fingerprint(traces, config);
  ASSERT_EQ(result.cells.size(), 6u);
  ASSERT_EQ(result.cells[0].size(), 2u);
  EXPECT_EQ(result.class_count, 4u);
  // FPGA current at full duration: strong fingerprinting.
  const Table3Cell fpga_current = result.cells[3].back();
  EXPECT_GT(fpga_current.top1, 0.8);
  EXPECT_GE(fpga_current.top5, fpga_current.top1);
  // FPGA voltage is far weaker than FPGA current.
  const Table3Cell fpga_voltage = result.cells[4].back();
  EXPECT_LT(fpga_voltage.top1, fpga_current.top1);
}

TEST(Fingerprint, ValidationErrors) {
  FingerprintConfig bad = small_config();
  bad.traces_per_model = 2;  // < folds
  EXPECT_THROW(collect_fingerprint_traces(bad), std::invalid_argument);

  FingerprintConfig long_duration = small_config();
  const auto traces = collect_fingerprint_traces(long_duration);
  long_duration.durations_s = {10.0};  // beyond collected trace length
  EXPECT_THROW(evaluate_fingerprint(traces, long_duration),
               std::invalid_argument);
}

TEST(Fingerprint, SensorAvgOverrideChangesFeatureCount) {
  FingerprintConfig c = small_config();
  c.model_limit = 2;
  c.traces_per_model = 3;
  c.folds = 3;
  c.trace_duration = sim::seconds(1);
  c.sensor_avg_override = 4;  // 8.8 ms conversions
  c.sample_period = sim::microseconds(8'800);
  const auto traces = collect_fingerprint_traces(c);
  EXPECT_EQ(traces.samples_per_trace, 113u);  // 1 s / 8.8 ms
  EXPECT_EQ(traces.per_channel[0].feature_count(), 113u);
}

TEST(Fingerprint, BackgroundActivityCanBeDisabled) {
  FingerprintConfig c = small_config();
  c.model_limit = 2;
  c.traces_per_model = 3;
  c.folds = 3;
  c.trace_duration = sim::seconds(1);
  c.background.burst_rate_hz = 0.0;
  c.background.lpd_tick_period = sim::TimeNs{0};
  EXPECT_NO_THROW(collect_fingerprint_traces(c));
}

TEST(Fingerprint, Fig3TracesCoverSixModelsAndFourRails) {
  FingerprintConfig c = small_config();
  c.trace_duration = sim::seconds(1);
  const auto traces = collect_fig3_traces(c);
  ASSERT_EQ(traces.size(), 6u);
  EXPECT_EQ(traces[0].model_name, "MobileNet-V1");
  EXPECT_EQ(traces[5].model_name, "VGG-19");
  for (const auto& t : traces) {
    EXPECT_GT(t.model_size_bytes, 0u);
    ASSERT_EQ(t.rail_current.size(), power::kRailCount);
    for (const auto& trace : t.rail_current) {
      EXPECT_EQ(trace.size(), 28u);  // 1 s at 35 ms
    }
  }
  // VGG-19 is by far the largest model in Fig 3's annotations.
  EXPECT_GT(traces[5].model_size_bytes, 10u * traces[0].model_size_bytes);
}

// Acquisition pin: one fixed-seed DPU victim run, recorded step by step as
// collect_fingerprint_traces records it, is hashed channel by channel
// (integer hwmon values plus validity mask) against constants. Any change
// to what the sampler reads, retries, or marks as a gap moves a hash.
FingerprintConfig pinned_run_config() {
  FingerprintConfig c;
  c.model_limit = 1;  // MobileNet-V1
  c.traces_per_model = 1;
  c.folds = 1;
  c.trace_duration = sim::seconds(2);
  // A seed whose 5% chaos schedule outlasts the retries twice, so the
  // chaos run's hashes pin gaps in the validity mask too.
  c.seed = 7;
  return c;
}

/// The run collect_fingerprint_traces records for run index 0.
std::vector<Trace> record_pinned_run(const FingerprintConfig& config) {
  const std::uint64_t run_seed = util::hash_combine(config.seed, 0);
  util::Rng rng(run_seed);
  const sim::TimeNs jitter{static_cast<std::int64_t>(
      rng.uniform() * static_cast<double>(config.max_trigger_jitter.ns))};
  dpu::DpuAccelerator dpu(config.dpu);
  const sim::TimeNs run_end{config.trace_duration.ns + jitter.ns +
                            sim::milliseconds(200).ns};
  const auto run = dpu.run(dnn::build_zoo().front(), sim::TimeNs{0}, run_end,
                           util::hash_combine(run_seed, 0xd9));
  soc::Soc soc(soc::zcu102_config(util::hash_combine(run_seed, 0x50c)));
  soc.fabric().deploy(dpu.descriptor());
  soc.add_activity(run.activity);
  soc.add_activity(soc::make_background_os_activity(
      config.background, run_end, util::hash_combine(run_seed, 0x05)));
  soc.finalize();

  std::optional<faults::FaultInjector> injector;
  if (config.fault_plan && config.fault_plan->any()) {
    faults::FaultPlan plan = *config.fault_plan;
    plan.seed = util::hash_combine(plan.seed, run_seed);
    injector.emplace(plan);
    injector->attach(soc.hwmon().fs());
  }
  Sampler sampler(soc);
  sampler.set_resilience(config.resilience);
  SamplerConfig sc;
  sc.period = config.sample_period;
  sc.sample_count =
      samples_for_duration(config.trace_duration, config.sample_period);
  return sampler.collect_multi(table3_channels(), jitter, sc);
}

/// FNV-1a over each sample's integer value and validity bit.
std::uint64_t trace_hash(const Trace& trace) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i], std::round(trace[i])) << "sample " << i;
    mix(static_cast<std::uint64_t>(std::llround(trace[i])));
    mix(trace.valid(i) ? 1u : 0u);
  }
  return h;
}

/// Records the pinned run, checks it is the run collect_fingerprint_traces
/// turns into features, and returns one hash per table3 channel.
std::vector<std::uint64_t> pinned_run_hashes(const FingerprintConfig& config,
                                             std::size_t* gaps) {
  const std::vector<Trace> traces = record_pinned_run(config);
  const FingerprintTraceSet collected = collect_fingerprint_traces(config);
  EXPECT_EQ(traces.size(), collected.per_channel.size());
  std::vector<std::uint64_t> hashes;
  *gaps = 0;
  for (std::size_t c = 0; c < traces.size(); ++c) {
    ml::Dataset features(collected.samples_per_trace);
    add_trace(features, traces[c], 0, collected.samples_per_trace,
              config.gap_policy);
    const auto ours = features.row(0);
    const auto theirs = collected.per_channel[c].row(0);
    EXPECT_TRUE(std::equal(ours.begin(), ours.end(), theirs.begin(),
                           theirs.end()))
        << "channel " << c << " differs from collect_fingerprint_traces";
    *gaps += traces[c].gap_count();
    hashes.push_back(trace_hash(traces[c]));
  }
  return hashes;
}

TEST(FingerprintAcquisition, CleanRunHashesArePinned) {
  std::size_t gaps = 0;
  const auto hashes = pinned_run_hashes(pinned_run_config(), &gaps);
  EXPECT_EQ(gaps, 0u);
  const std::vector<std::uint64_t> expected = {
      0xd590bd6b6dcf0decull,
      0xa07b78234f0ba7caull,
      0x1d41049479229a14ull,
      0xee69497e196f181eull,
      0x3e65ec42ad4fb694ull,
      0x511e72178656dc62ull};
  EXPECT_EQ(hashes, expected);
}

TEST(FingerprintAcquisition, ChaosRunHashesArePinned) {
  FingerprintConfig config = pinned_run_config();
  config.fault_plan = faults::FaultPlan::chaos(config.seed, 0.05);
  config.resilience.enabled = true;
  std::size_t gaps = 0;
  const auto hashes = pinned_run_hashes(config, &gaps);
  EXPECT_EQ(gaps, 2u);  // the mask is part of what is pinned
  const std::vector<std::uint64_t> expected = {
      0xd590bd6b6dcf0decull,
      0x73249bbd7f4d6008ull,
      0x1d41049479229a14ull,
      0x96b47cf55fcf9f5full,
      0x3e65ec42ad4fb694ull,
      0x2eb3c72938f5d187ull};
  EXPECT_EQ(hashes, expected);
}

}  // namespace
}  // namespace amperebleed::core
