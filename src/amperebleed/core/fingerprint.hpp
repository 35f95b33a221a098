#pragma once
// DPU model-fingerprinting attack (Fig 3 + Table III). Offline phase:
// collect labelled traces of every zoo model from the six observation
// channels. Online phase (modelled by cross-validation, as in the paper):
// classify held-out traces with a random forest per channel and duration.

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "amperebleed/core/preprocess.hpp"
#include "amperebleed/core/resilience.hpp"
#include "amperebleed/core/trace.hpp"
#include "amperebleed/dpu/dpu.hpp"
#include "amperebleed/faults/faults.hpp"
#include "amperebleed/ml/dataset.hpp"
#include "amperebleed/ml/kfold.hpp"
#include "amperebleed/soc/process.hpp"

namespace amperebleed::core {

/// The six rows of Table III, in the paper's order: FPD current, LPD
/// current, DRAM current, FPGA current, FPGA voltage, FPGA power.
const std::vector<Channel>& table3_channels();

struct FingerprintConfig {
  /// Traces recorded per model (per channel). The paper's 10-fold CV needs
  /// at least `folds` traces per model.
  std::size_t traces_per_model = 20;
  sim::TimeNs trace_duration = sim::seconds(5);
  sim::TimeNs sample_period = sim::milliseconds(35);
  /// Observation windows evaluated (Table III columns), in seconds.
  std::vector<double> durations_s = {1.0, 2.0, 3.0, 4.0, 5.0};
  /// Random start offset (uniform in [0, max)) between the inference loop
  /// starting and the attacker's first sample — trigger latency.
  sim::TimeNs max_trigger_jitter = sim::milliseconds(30);
  /// RF classifier: 100 trees, depth 32, Gini, bootstrap (paper settings).
  ml::ForestConfig forest{};
  std::size_t folds = 10;
  dpu::DpuConfig dpu{};
  /// Background OS activity running alongside the victim (timer ticks,
  /// housekeeping bursts); set rate to 0 for a sterile board.
  soc::BackgroundActivityParams background{};
  /// Override every sensor's averaging count (root-only reconfiguration;
  /// used by the update-interval ablation). Keep sample_period consistent:
  /// avg * 2.2 ms.
  std::optional<std::uint16_t> sensor_avg_override;
  /// Limit to the first N zoo models (0 = all 39). Tests use small subsets.
  std::size_t model_limit = 0;
  /// Chaos schedule installed on every victim run's hwmon read path (the
  /// plan's seed is combined with the per-run seed, so runs draw
  /// independent but exactly reproducible fault schedules). Unset: clean
  /// acquisition, bit-identical to the pre-fault pipeline.
  std::optional<faults::FaultPlan> fault_plan;
  /// Acquisition resilience policy for the per-run samplers (disabled =
  /// strict legacy semantics: any failed read aborts the run).
  ResilienceConfig resilience{};
  /// How gap samples are reconstructed before traces become feature
  /// vectors (only holey traces take this path).
  GapPolicy gap_policy = GapPolicy::HoldLast;
  std::uint64_t seed = 0xdf3;
};

/// Labelled full-length traces for every channel.
struct FingerprintTraceSet {
  std::vector<std::string> model_names;  // label -> name
  /// One dataset per table3_channels() entry; features are the full-length
  /// trace in hwmon units.
  std::vector<ml::Dataset> per_channel;
  std::size_t samples_per_trace = 0;
  sim::TimeNs sample_period{0};
};

/// One victim run: a fresh SoC, `model`'s DPU inference loop plus
/// background OS activity, and `n_samples` samples of every table3 channel
/// from a jittered trigger offset (under the config's fault plan and
/// resilience policy). Every random choice is drawn from `run_seed`;
/// collect_fingerprint_traces records run r with
/// run_seed = hash_combine(config.seed, r).
std::vector<Trace> record_victim_run(const dnn::Model& model,
                                     const FingerprintConfig& config,
                                     std::size_t n_samples,
                                     std::uint64_t run_seed);

/// Offline phase: simulate every (model, repetition) run and record traces.
FingerprintTraceSet collect_fingerprint_traces(const FingerprintConfig& config);

struct Table3Cell {
  double top1 = 0.0;
  double top5 = 0.0;
};

struct Table3Result {
  std::vector<std::string> channel_names;         // rows
  std::vector<double> durations_s;                // columns
  std::vector<std::vector<Table3Cell>> cells;     // [channel][duration]
  std::size_t class_count = 0;
  [[nodiscard]] double random_guess_top1() const {
    return class_count == 0 ? 0.0 : 1.0 / static_cast<double>(class_count);
  }
};

/// Classification phase: per-channel, per-duration 10-fold CV.
Table3Result evaluate_fingerprint(const FingerprintTraceSet& traces,
                                  const FingerprintConfig& config);

/// Fig 3: raw current traces of the six example models on the four current
/// sensors (one repetition each).
struct Fig3Trace {
  std::string model_name;
  std::uint64_t model_size_bytes = 0;  // INT8 parameter bytes (Fig 3 labels)
  std::vector<Trace> rail_current;     // one per power::kAllRails, in order
};

std::vector<Fig3Trace> collect_fig3_traces(const FingerprintConfig& config);

}  // namespace amperebleed::core
