#include "amperebleed/dpu/dpu.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "amperebleed/obs/obs.hpp"
#include "amperebleed/util/rng.hpp"

namespace amperebleed::dpu {

DpuAccelerator::DpuAccelerator(DpuConfig config) : config_(config) {
  if (config_.clock_mhz <= 0.0 || config_.peak_macs_per_cycle <= 0.0 ||
      config_.dram_bandwidth_bytes_per_s <= 0.0) {
    throw std::invalid_argument("DpuAccelerator: non-positive throughput");
  }
}

fpga::CircuitDescriptor DpuAccelerator::descriptor() const {
  // DPUCZDX8G B4096-class footprint on a ZU9EG.
  return fpga::CircuitDescriptor{
      .name = "dpu_b4096",
      .usage =
          fpga::FabricResources{
              .luts = 52'000,
              .flip_flops = 98'000,
              .dsp_slices = 710,
              .bram_blocks = 255,
          },
      .encrypted = true,  // IEEE-1735 encrypted commercial IP
  };
}

LayerTiming DpuAccelerator::layer_timing(const dnn::Layer& layer) const {
  double efficiency = config_.conv_efficiency;
  switch (layer.kind) {
    case dnn::LayerKind::Conv:
      efficiency = config_.conv_efficiency;
      break;
    case dnn::LayerKind::DepthwiseConv:
      efficiency = config_.depthwise_efficiency;
      break;
    case dnn::LayerKind::FullyConnected:
      efficiency = config_.fc_efficiency;
      break;
    case dnn::LayerKind::Pool:
    case dnn::LayerKind::GlobalPool:
    case dnn::LayerKind::EltwiseAdd:
      efficiency = config_.pool_efficiency;
      break;
    case dnn::LayerKind::Concat:
      efficiency = config_.pool_efficiency;  // pure data movement
      break;
  }

  const double peak_macs_per_s =
      config_.peak_macs_per_cycle * config_.clock_mhz * 1e6;
  const double macs = static_cast<double>(layer.macs());
  const double bytes = static_cast<double>(layer.dram_bytes());

  const double compute_s = macs / (efficiency * peak_macs_per_s);
  const double memory_s = bytes / config_.dram_bandwidth_bytes_per_s;
  const double busy_s = std::max(compute_s, memory_s);

  LayerTiming t;
  t.duration = sim::from_seconds(busy_s) + config_.layer_overhead;
  const double duration_s = t.duration.seconds();
  if (duration_s > 0.0) {
    t.mac_utilization = std::min(1.0, macs / (peak_macs_per_s * duration_s));
    const double achieved_gbps = bytes / duration_s / 1e9;
    t.fpga_current_amps =
        config_.fpga_full_load_current_amps * t.mac_utilization;
    t.dram_current_amps = config_.dram_current_per_gbps_amps * achieved_gbps;
  }
  return t;
}

sim::TimeNs DpuAccelerator::inference_latency(const dnn::Model& model) const {
  sim::TimeNs total{0};
  for (const auto& layer : model.layers) {
    total += layer_timing(layer).duration;
  }
  return total;
}

sim::TimeNs DpuAccelerator::preprocess_duration(const dnn::Model& model) const {
  const double mpixel_channels =
      static_cast<double>(model.input.elements()) / 1e6;
  return config_.cpu_preprocess_base +
         sim::from_seconds(config_.cpu_preprocess_per_mpixel.seconds() *
                           mpixel_channels);
}

sim::TimeNs DpuAccelerator::inference_period(const dnn::Model& model) const {
  return preprocess_duration(model) + inference_latency(model) +
         config_.cpu_postprocess;
}

DpuAccelerator::RunResult DpuAccelerator::run(const dnn::Model& model,
                                              sim::TimeNs start,
                                              sim::TimeNs end,
                                              std::uint64_t seed) const {
  if (end < start) throw std::invalid_argument("DpuAccelerator::run: end < start");
  if (model.layers.empty()) {
    throw std::invalid_argument("DpuAccelerator::run: empty model");
  }

  auto run_span = obs::span("dpu.run", "dpu");
  run_span.set_arg("layers", static_cast<double>(model.layers.size()));

  RunResult out;
  auto& fpga_rail = out.activity.on(power::Rail::FpgaLogic);
  auto& dram_rail = out.activity.on(power::Rail::Ddr);
  auto& fpd_rail = out.activity.on(power::Rail::FpdCpu);
  auto& lpd_rail = out.activity.on(power::Rail::LpdCpu);
  fpga_rail = sim::PiecewiseConstant(config_.fpga_idle_current_amps);

  util::Rng rng(seed);
  const auto jittered = [&](sim::TimeNs nominal) {
    const double f =
        std::max(0.25, 1.0 + rng.gaussian(0.0, config_.cpu_jitter_fraction));
    return sim::from_seconds(nominal.seconds() * f);
  };

  // Pre-compute per-layer timings once per model.
  std::vector<LayerTiming> timings;
  timings.reserve(model.layers.size());
  for (const auto& layer : model.layers) {
    timings.push_back(layer_timing(layer));
  }

  // Size each rail once. An inference appends at most L + 1 segments to
  // the FPGA and DRAM rails (L layers) and 3 to each CPU rail; the CPU
  // jitter moves the inference count around end / period by a few percent.
  const auto expected = static_cast<std::size_t>(
      (end - start).ns / std::max<std::int64_t>(1, inference_period(model).ns));
  const std::size_t inferences = expected + expected / 16 + 1;
  fpga_rail.reserve(inferences * (timings.size() + 1));
  dram_rail.reserve(inferences * (timings.size() + 1));
  fpd_rail.reserve(inferences * 3 + 1);
  lpd_rail.reserve(inferences * 3);

  sim::TimeNs cursor = start;
  while (cursor < end) {
    // ARM core 0: preprocessing (resize + quantize the input image).
    const sim::TimeNs pre = jittered(preprocess_duration(model));
    fpd_rail.append(cursor, config_.cpu_busy_current_amps);
    cursor += pre;
    fpd_rail.append(cursor, 0.0);

    // Accelerator: layer pipeline (the DPU runtime keeps feeding it through
    // the LPD-side platform path while it runs).
    lpd_rail.append(cursor, config_.lpd_driver_current_amps);
    const bool trace_layers = obs::tracing_enabled();
    for (std::size_t li = 0; li < timings.size(); ++li) {
      const auto& t = timings[li];
      fpga_rail.append(cursor,
                       config_.fpga_idle_current_amps + t.fpga_current_amps);
      dram_rail.append(cursor, t.dram_current_amps);
      if (trace_layers) {
        // One virtual-time span per executed layer: the per-layer current
        // plateaus the fingerprinting attack keys on, as trace events.
        obs::virtual_span(
            "dpu.layer." +
                std::string(dnn::layer_kind_name(model.layers[li].kind)),
            "dpu", cursor, t.duration,
            {{"layer_index", static_cast<double>(li)},
             {"fpga_ma", t.fpga_current_amps * 1e3},
             {"dram_ma", t.dram_current_amps * 1e3},
             {"mac_utilization", t.mac_utilization}});
      }
      cursor += t.duration;
    }
    obs::count("dpu.layers", timings.size());
    fpga_rail.append(cursor, config_.fpga_idle_current_amps);
    dram_rail.append(cursor, 0.0);

    // DPU done-interrupt serviced through the LPD, then postprocessing.
    // Postprocessing runs straight into the next inference's preprocessing,
    // so the FPD rail stays busy across the boundary (coalesced).
    lpd_rail.append(cursor, config_.lpd_irq_current_amps);
    lpd_rail.append(cursor + config_.lpd_irq_duration, 0.0);
    const sim::TimeNs post = jittered(config_.cpu_postprocess);
    fpd_rail.append(cursor, config_.cpu_busy_current_amps);
    cursor += post;

    ++out.inference_count;
  }
  fpd_rail.append(cursor, 0.0);
  obs::count("dpu.inferences", out.inference_count);
  run_span.set_arg("inferences", static_cast<double>(out.inference_count));
  run_span.set_virtual_ns(cursor);
  return out;
}

}  // namespace amperebleed::dpu
