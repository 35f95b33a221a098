#include "amperebleed/core/fingerprint.hpp"

#include <stdexcept>
#include <utility>

#include "amperebleed/core/features.hpp"
#include "amperebleed/core/sampler.hpp"
#include "amperebleed/dnn/zoo.hpp"
#include "amperebleed/obs/obs.hpp"
#include "amperebleed/util/parallel.hpp"
#include "amperebleed/util/rng.hpp"

namespace amperebleed::core {

const std::vector<Channel>& table3_channels() {
  static const std::vector<Channel> channels = {
      {power::Rail::FpdCpu, Quantity::Current},
      {power::Rail::LpdCpu, Quantity::Current},
      {power::Rail::Ddr, Quantity::Current},
      {power::Rail::FpgaLogic, Quantity::Current},
      {power::Rail::FpgaLogic, Quantity::Voltage},
      {power::Rail::FpgaLogic, Quantity::Power},
  };
  return channels;
}

namespace {

std::vector<dnn::Model> limited_zoo(std::size_t limit) {
  auto zoo = dnn::build_zoo();
  if (limit != 0 && limit < zoo.size()) {
    zoo.resize(limit);
  }
  return zoo;
}

}  // namespace

std::vector<Trace> record_victim_run(const dnn::Model& model,
                                     const FingerprintConfig& config,
                                     std::size_t n_samples,
                                     std::uint64_t run_seed) {
  // Acquire stage: the whole victim run — SoC build, DPU schedule, sensor
  // polling — is one acquisition unit in the pipeline timeline.
  obs::StageSpan stage(obs::Stage::Acquire);
  stage.span().set_attr("model_id", model.name);

  util::Rng rng(run_seed);
  const sim::TimeNs jitter{static_cast<std::int64_t>(
      rng.uniform() *
      static_cast<double>(config.max_trigger_jitter.ns))};

  dpu::DpuAccelerator dpu(config.dpu);
  // The victim keeps inferring a little past the observation window.
  const sim::TimeNs run_end{config.trace_duration.ns + jitter.ns +
                            sim::milliseconds(200).ns};
  auto run = dpu.run(model, sim::TimeNs{0}, run_end,
                     util::hash_combine(run_seed, 0xd9));
  power::RailActivity background = soc::make_background_os_activity(
      config.background, run_end, util::hash_combine(run_seed, 0x05));

  soc::SocConfig soc_config =
      soc::zcu102_config(util::hash_combine(run_seed, 0x50c));
  if (config.sensor_avg_override) {
    for (auto& sensor : soc_config.sensor) {
      sensor.avg_count = *config.sensor_avg_override;
    }
  }
  soc::Soc soc(soc_config);
  soc.fabric().deploy(dpu.descriptor());
  soc.add_activity(std::move(run.activity));
  soc.add_activity(std::move(background));
  soc.finalize();

  // Per-run chaos: the injector's seed mixes the plan seed with the run
  // seed, so every run replays its own schedule regardless of which worker
  // thread records it.
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
  sc.sample_count = n_samples;
  return sampler.collect_multi(table3_channels(), jitter, sc);
}

FingerprintTraceSet collect_fingerprint_traces(
    const FingerprintConfig& config) {
  if (config.traces_per_model < config.folds) {
    throw std::invalid_argument(
        "fingerprint: traces_per_model must be >= folds for stratified CV");
  }
  const auto zoo = limited_zoo(config.model_limit);
  if (zoo.empty()) throw std::invalid_argument("fingerprint: empty zoo");

  FingerprintTraceSet out;
  out.sample_period = config.sample_period;
  out.samples_per_trace =
      samples_for_duration(config.trace_duration, config.sample_period);
  for (const auto& m : zoo) out.model_names.push_back(m.name);

  const std::size_t runs = zoo.size() * config.traces_per_model;
  // Record runs in parallel into pre-sized slots, then assemble datasets in
  // deterministic order.
  std::vector<std::vector<Trace>> recorded(runs);
  util::parallel_for(runs, [&](std::size_t r) {
    const std::size_t model_idx = r / config.traces_per_model;
    recorded[r] =
        record_victim_run(zoo[model_idx], config, out.samples_per_trace,
                          util::hash_combine(config.seed, r));
  });

  out.per_channel.assign(table3_channels().size(),
                         ml::Dataset(out.samples_per_trace));
  for (std::size_t r = 0; r < runs; ++r) {
    // Features stage: one recorded run folded into the per-channel datasets
    // (gap preprocessing happens inside add_trace when a trace has holes).
    obs::StageSpan stage(obs::Stage::Features);
    stage.span().set_arg("run", static_cast<double>(r));
    stage.span().set_attr("model_id",
                          out.model_names[r / config.traces_per_model]);
    const int label = static_cast<int>(r / config.traces_per_model);
    for (std::size_t c = 0; c < out.per_channel.size(); ++c) {
      add_trace(out.per_channel[c], recorded[r][c], label,
                out.samples_per_trace, config.gap_policy);
    }
  }
  return out;
}

Table3Result evaluate_fingerprint(const FingerprintTraceSet& traces,
                                  const FingerprintConfig& config) {
  Table3Result result;
  result.durations_s = config.durations_s;
  result.class_count = traces.model_names.size();
  for (const auto& c : table3_channels()) {
    result.channel_names.push_back(channel_name(c));
  }

  const std::size_t n_channels = traces.per_channel.size();
  const std::size_t n_durations = config.durations_s.size();
  result.cells.assign(n_channels,
                      std::vector<Table3Cell>(n_durations));

  // Each (channel, duration) cell is an independent CV job.
  util::parallel_for(n_channels * n_durations, [&](std::size_t job) {
    const std::size_t c = job / n_durations;
    const std::size_t d = job % n_durations;
    // Classify stage: one (channel, duration) cross-validation cell.
    obs::StageSpan stage(obs::Stage::Classify);
    stage.span().set_attr("channel", result.channel_names[c]);
    stage.span().set_arg("duration_s", config.durations_s[d]);
    const std::size_t features = samples_for_duration(
        sim::from_seconds(config.durations_s[d]), traces.sample_period);
    if (features == 0 || features > traces.samples_per_trace) {
      throw std::invalid_argument("fingerprint: bad duration");
    }
    const ml::Dataset data =
        traces.per_channel[c].truncated_features(features);
    ml::ForestConfig fc = config.forest;
    fc.seed = util::hash_combine(config.seed, 0xf0 + job);
    const auto cv = ml::cross_validate(
        data, fc, config.folds, util::hash_combine(config.seed, job));
    result.cells[c][d] = Table3Cell{cv.top1_accuracy, cv.top5_accuracy};
  });

  return result;
}

std::vector<Fig3Trace> collect_fig3_traces(const FingerprintConfig& config) {
  const auto names = dnn::fig3_model_names();
  const std::size_t n_samples =
      samples_for_duration(config.trace_duration, config.sample_period);

  // One victim run per model, recorded in parallel into pre-sized slots.
  // Every per-model seed is a pure function of (config.seed, m) — the same
  // values the former serial loop derived from out.size() — so the traces
  // are bit-identical at any thread count.
  std::vector<Fig3Trace> out(names.size());
  util::parallel_for(names.size(), [&](std::size_t m) {
    const dnn::Model model = dnn::build_model(names[m]);

    dpu::DpuAccelerator dpu(config.dpu);
    const sim::TimeNs run_end{config.trace_duration.ns +
                              sim::milliseconds(200).ns};
    auto run = dpu.run(model, sim::TimeNs{0}, run_end,
                       util::hash_combine(config.seed, model.total_macs()));

    soc::Soc soc(
        soc::zcu102_config(util::hash_combine(config.seed, 0xf13 + m)));
    soc.fabric().deploy(dpu.descriptor());
    soc.add_activity(std::move(run.activity));
    soc.add_activity(soc::make_background_os_activity(
        config.background, run_end,
        util::hash_combine(config.seed, 0xb05 + m)));
    soc.finalize();

    Sampler sampler(soc);
    SamplerConfig sc;
    sc.period = config.sample_period;
    sc.sample_count = n_samples;

    std::vector<Channel> channels;
    for (power::Rail rail : power::kAllRails) {
      channels.push_back(Channel{rail, Quantity::Current});
    }
    Fig3Trace& ft = out[m];
    ft.model_name = names[m];
    ft.model_size_bytes = model.total_weight_bytes();
    ft.rail_current = sampler.collect_multi(channels, sim::TimeNs{0}, sc);
  });
  return out;
}

}  // namespace amperebleed::core
