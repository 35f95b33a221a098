#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>

#include "amperebleed/core/sampler.hpp"
#include "amperebleed/dpu/dpu.hpp"
#include "amperebleed/dnn/zoo.hpp"
#include "amperebleed/soc/soc.hpp"
#include "amperebleed/util/parallel.hpp"
#include "amperebleed/util/rng.hpp"

namespace perfbench {

namespace fs = std::filesystem;

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const double rank =
      std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const std::size_t index =
      std::min(rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1,
               samples.size() - 1);
  const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(index);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

double tail_percentile_rank(std::size_t sample_count) {
  for (const double p : {99.0, 90.0}) {
    // Samples strictly above the nearest-rank p-th percentile.
    const double rank =
        std::ceil(p / 100.0 * static_cast<double>(sample_count));
    if (static_cast<double>(sample_count) - rank >= 10.0) return p;
  }
  return 50.0;
}

void Result::add(std::string name, double value, std::string unit) {
  metrics.push_back(Metric{std::move(name), value, std::move(unit)});
}

void Result::fail(const std::string& why) {
  correct = false;
  if (errors.size() < 20) errors.push_back(why);
}

std::string Result::json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    // JSON has no NaN/Inf; a non-finite figure is reported as 0.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (i != 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

ScratchDir::ScratchDir(const std::string& base, const std::string& prefix) {
  fs::create_directories(base);
  std::string pattern = base + "/" + prefix + "-XXXXXX";
  if (::mkdtemp(pattern.data()) == nullptr) {
    throw std::runtime_error("cannot create a scratch directory under " +
                             base);
  }
  path_ = pattern;
}

ScratchDir::~ScratchDir() {
  std::error_code ignored;
  fs::remove_all(path_, ignored);
}

namespace {

/// One FPGA-current trace of `model` running on the DPU.
ab::core::Trace record_trace(const std::string& model, std::size_t samples,
                             std::uint64_t seed) {
  const ab::dnn::Model m = ab::dnn::build_model(model);
  ab::dpu::DpuAccelerator dpu;
  auto run = dpu.run(
      m, ab::sim::TimeNs{0},
      ab::sim::milliseconds(35 * static_cast<std::int64_t>(samples + 4)),
      seed);
  ab::soc::Soc soc(ab::soc::zcu102_config(ab::util::hash_combine(seed, 0x0e)));
  soc.fabric().deploy(dpu.descriptor());
  soc.add_activity(run.activity);
  soc.finalize();
  ab::core::Sampler sampler(soc);
  ab::core::SamplerConfig config;
  config.sample_count = samples;
  return sampler.collect(
      {ab::power::Rail::FpgaLogic, ab::core::Quantity::Current},
      ab::sim::TimeNs{0}, config);
}

}  // namespace

const std::vector<std::string>& serve_models() {
  static const std::vector<std::string> models = {
      "MobileNet-V1",   "SqueezeNet",          "EfficientNet-Lite4",
      "Inception-V4",   "DenseNet-264",        "ResNet-101",
      "ResNet-152",     "WideResNet-50",       "VGG-11",
      "VGG-19-BN",      "DenseNet-161",        "Inception-V3"};
  return models;
}

std::vector<std::vector<ab::core::Trace>> acquire_pool(
    const std::vector<std::string>& models, std::size_t per_model,
    std::size_t samples, std::uint64_t seed) {
  // Trace has no empty state: one single-element slot per acquisition.
  std::vector<std::vector<ab::core::Trace>> slots(models.size() * per_model);
  ab::util::parallel_for(slots.size(), [&](std::size_t i) {
    slots[i].push_back(record_trace(models[i / per_model], samples,
                                    ab::util::hash_combine(seed, i)));
  });
  std::vector<std::vector<ab::core::Trace>> pool(models.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    pool[i / per_model].push_back(std::move(slots[i].front()));
  }
  return pool;
}

std::string verdict_probe(const ab::serve::ClassificationService& service,
                          const std::vector<ab::core::Trace>& probes) {
  std::string out;
  char buf[64];
  for (const std::string& name : service.tenant_names()) {
    const ab::serve::TenantSession* tenant = service.tenant(name);
    out += name;
    out += '|';
    out += ab::serve::state_name(tenant->state());
    if (tenant->state() == ab::serve::TenantSession::State::Serving) {
      const auto verdicts = tenant->fingerprinter().classify_many(probes);
      for (const auto& verdict : verdicts) {
        out += verdict.known ? "|+" : "|-";
        out += verdict.model_name;
        for (const auto& [label, proba] : verdict.ranking) {
          std::snprintf(buf, sizeof(buf), " %.17g", proba);
          out += buf;
        }
      }
    }
    out += '\n';
  }
  return out;
}

void OpStats::add(double done_s, double us) {
  constexpr double kMinWindowS = 0.1;
  constexpr std::size_t kMinWindowOps = 200;
  if (windowed_ && window_us_.size() >= kMinWindowOps &&
      done_s - window_start_s_ >= kMinWindowS) {
    close(done_s);
  }
  window_us_.push_back(us);
  ++count_;
}

void OpStats::finish(double timed_s) {
  if (window_us_.size() >= 200 || rates_.empty()) close(timed_s);
  window_us_.clear();
}

void OpStats::close(double end_s) {
  const double width = end_s - window_start_s_;
  rates_.push_back(width > 0.0 ? static_cast<double>(window_us_.size()) / width
                               : 0.0);
  p50s_.push_back(percentile(window_us_, 50.0));
  tails_.push_back(
      percentile(window_us_, tail_percentile_rank(window_us_.size())));
  window_us_.clear();
  window_start_s_ = end_s;
}

void add_end_to_end(Result& result, double setup_s, const OpStats& ops) {
  result.add("setup_s", setup_s, "s");
  result.add("ops_per_s", ops.rate_per_s(), "1/s");
  result.add("op_p50_us", ops.p50_us(), "us");
  result.add("op_tail_us", ops.tail_us(), "us");
  result.add("peak_rss_mb", peak_rss_mb(), "MiB");
  std::fprintf(stderr, "perfbench: %zu ops\n", ops.count());
}

namespace {

struct LayerSpec {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in report order (BENCHMARK.json lists the same).
constexpr LayerSpec kLayers[] = {
    {"serve.submit_ns_p50", "ns"},
    {"serve.submit_busy_s", "s"},
    {"serve.queue_wait_us_p50", "us"},
    {"serve.queue_wait_us_p99", "us"},
    {"serve.rejected", "count"},
    {"serve.tick_us_p50", "us"},
    {"serve.tick_us_p99", "us"},
    {"serve.rows_per_sweep", "count"},
    {"serve.sweeps", "count"},
    {"serve.self_s", "s"},
    {"serve.classify_per_s", "1/s"},
    {"core.classify_many_busy_s", "s"},
    {"core.verdict_self_s", "s"},
    {"ml.predict_ns_per_row_tree", "ns"},
    {"ml.predict_busy_s", "s"},
    {"ml.fit_ms_p50", "ms"},
    {"ml.fit_count", "count"},
    {"persist.journal_append_us_p50", "us"},
    {"persist.journal_append_us_p99", "us"},
    {"persist.snapshot_encode_ms", "ms"},
    {"persist.snapshot_write_ms", "ms"},
    {"persist.snapshot_bytes", "bytes"},
    {"persist.snapshots_written", "count"},
    {"persist.bytes_written_per_user_byte", "ratio"},
    {"persist.store_open_ms", "ms"},
    {"persist.snapshot_decode_ms", "ms"},
    {"persist.journal_scan_ms", "ms"},
    {"serve.replay_ms", "ms"},
    {"persist.tail_records", "count"},
    {"persist.discarded_records", "count"},
    {"core.collect_s", "s"},
    {"dpu.run_ms", "ms"},
    {"soc.finalize_ms", "ms"},
    {"core.sampler_collect_ms", "ms"},
    {"core.gap_samples", "count"},
    {"core.add_trace_us", "us"},
    {"core.fill_gaps_calls", "count"},
    {"ml.cross_validate_s", "s"},
    {"core.evaluate_s", "s"},
    {"client.self_s", "s"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.coverage", "ratio"},
};

}  // namespace

Layers::Layers() {
  for (const LayerSpec& spec : kLayers) values_[spec.name] = 0.0;
}

void Layers::set(const std::string& name, double value) {
  const auto it = values_.find(name);
  if (it == values_.end()) {
    throw std::logic_error("unknown per-layer metric " + name);
  }
  it->second = value;
}

void Layers::emit(Result& result) const {
  for (const LayerSpec& spec : kLayers) {
    result.add(spec.name, values_.at(spec.name), spec.unit);
  }
}

void set_trace_summary(Layers& layers, Result& result, double untraced_per_s,
                       double traced_per_s, double self_s, double timed_s) {
  layers.set("trace.overhead_ratio",
             traced_per_s > 0.0 ? untraced_per_s / traced_per_s : 0.0);
  const double coverage = timed_s > 0.0 ? self_s / timed_s : 0.0;
  layers.set("trace.coverage", coverage);
  if (coverage < 0.95) {
    result.fail("layer self times cover only " +
                std::to_string(coverage * 100.0) + "% of the timed wall");
  }
}

}  // namespace perfbench
