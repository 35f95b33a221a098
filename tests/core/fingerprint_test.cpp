#include "amperebleed/core/fingerprint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "amperebleed/core/features.hpp"
#include "amperebleed/core/sampler.hpp"
#include "amperebleed/dnn/zoo.hpp"
#include "amperebleed/power/pdn.hpp"
#include "amperebleed/sensors/ina226.hpp"
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

/// FNV-1a over 64-bit words, byte by byte.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void mix(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
};

/// FNV-1a over each sample's integer value and validity bit.
std::uint64_t trace_hash(const Trace& trace) {
  Fnv1a fnv;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i], std::round(trace[i])) << "sample " << i;
    fnv.mix(static_cast<std::uint64_t>(std::llround(trace[i])));
    fnv.mix(trace.valid(i) ? 1u : 0u);
  }
  return fnv.h;
}

/// Records the pinned run, checks it is the run collect_fingerprint_traces
/// turns into features, and returns one hash per table3 channel.
std::vector<std::uint64_t> pinned_run_hashes(const FingerprintConfig& config,
                                             std::size_t* gaps) {
  // The run collect_fingerprint_traces records for run index 0.
  const std::vector<Trace> traces = record_victim_run(
      dnn::build_zoo().front(), config,
      samples_for_duration(config.trace_duration, config.sample_period),
      util::hash_combine(config.seed, 0));
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

TEST(FingerprintAcquisition, ShortAveragingRunHashesArePinned) {
  // AVG = 4: every conversion window is a quarter of the default, and the
  // attacker polls at the matching 8.8 ms.
  FingerprintConfig config = pinned_run_config();
  config.sensor_avg_override = 4;
  config.sample_period = sim::microseconds(8800);
  config.trace_duration = sim::seconds(1);
  std::size_t gaps = 0;
  const auto hashes = pinned_run_hashes(config, &gaps);
  EXPECT_EQ(gaps, 0u);
  const std::vector<std::uint64_t> expected = {
      0x4ea9d9b5433396ffull,
      0x4964c17368c4ae11ull,
      0xf8a5d772260bf7c4ull,
      0xb30a33f9190b6cf7ull,
      0x8a4d83df2b74419bull,
      0x78055a27239bc242ull};
  EXPECT_EQ(hashes, expected);
}

/// The pinned model's DPU schedule over [0, end).
dpu::DpuAccelerator::RunResult pinned_dpu_run(sim::TimeNs end) {
  return dpu::DpuAccelerator(pinned_run_config().dpu)
      .run(dnn::build_zoo().front(), sim::TimeNs{0}, end, 0xd9);
}

TEST(FingerprintAcquisition, SysmonPlatformIsPinned) {
  // With the SYSMON on, finalize scales and sums the four rail currents into
  // die power and runs the thermal model over it; the AMS digitizes that.
  const sim::TimeNs end = sim::seconds(1);
  soc::SocConfig soc_config = soc::zcu102_config(0x50c);
  soc_config.with_sysmon = true;
  soc::Soc soc(soc_config);
  soc.add_activity(pinned_dpu_run(end).activity);
  soc.add_activity(soc::make_background_os_activity(
      pinned_run_config().background, end, 0x05));
  soc.finalize();

  Fnv1a temperature;
  for (const auto& seg : soc.die_temperature().segments()) {
    temperature.mix(static_cast<std::uint64_t>(seg.start.ns));
    temperature.mix(std::bit_cast<std::uint64_t>(seg.value));
  }
  Fnv1a readings;
  for (sim::TimeNs t{0}; t < end; t += sim::milliseconds(5)) {
    soc.advance_to(t);
    readings.mix(soc.sysmon().raw_code());
    for (power::Rail rail : power::kAllRails) {
      readings.mix(
          soc.sensor(rail).read_register(sensors::Ina226Register::Current));
    }
  }
  EXPECT_EQ(soc.die_temperature().segment_count(), 2200u);
  EXPECT_EQ(temperature.h, 0xf1e9d4b35e0f7d98ull);
  EXPECT_EQ(readings.h, 0x36c81221b4aa7096ull);
}

TEST(FingerprintAcquisition, RetimedAndReboundSensorIsPinned) {
  // One INA226 polled every 3 ms: re-timed to 8.8 ms updates, re-bound from
  // the FPGA rail to the DRAM rail, then re-timed again.
  const auto run = pinned_dpu_run(sim::seconds(2));
  const soc::SocConfig soc_config = soc::zcu102_config(0x50c);
  const auto rail_signals = [&](power::Rail rail) {
    const std::size_t i = power::rail_index(rail);
    sim::PiecewiseConstant current =
        run.activity.current[i] +
        sim::PiecewiseConstant(soc_config.idle_current_amps[i]);
    sim::PiecewiseConstant voltage =
        power::PdnModel(soc_config.pdn[i]).voltage_signal(current);
    return std::pair{std::move(current), std::move(voltage)};
  };
  const auto fpga = rail_signals(power::Rail::FpgaLogic);
  const auto ddr = rail_signals(power::Rail::Ddr);
  const std::size_t fpga_index = power::rail_index(power::Rail::FpgaLogic);
  sensors::Ina226 sensor(soc_config.sensor[fpga_index],
                         soc_config.noise[fpga_index], 0x1a226);
  sensor.bind(&fpga.first, &fpga.second);

  Fnv1a registers;
  sim::TimeNs t{0};
  const auto poll_until = [&](sim::TimeNs end) {
    for (; t < end; t += sim::milliseconds(3)) {
      sensor.advance_to(t);
      for (const auto reg : {sensors::Ina226Register::Current,
                             sensors::Ina226Register::BusVoltage,
                             sensors::Ina226Register::Power}) {
        registers.mix(sensor.read_register(reg));
      }
    }
  };
  poll_until(sim::milliseconds(500));
  sensor.set_timing(4, sim::microseconds(1100), sim::microseconds(1100));
  poll_until(sim::milliseconds(1000));
  sensor.bind(&ddr.first, &ddr.second);
  poll_until(sim::milliseconds(1500));
  sensor.set_timing(64, sim::microseconds(140), sim::microseconds(204));
  poll_until(sim::seconds(2));
  EXPECT_EQ(sensor.conversions_completed(), 150u);
  EXPECT_EQ(registers.h, 0xf2c4656b35aa49edull);
}

}  // namespace
}  // namespace amperebleed::core
