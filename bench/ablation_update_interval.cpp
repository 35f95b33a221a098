// Ablation A1: fingerprinting quality vs hwmon update interval. The INA226
// supports 2.2-35.2 ms update intervals, but reconfiguring it needs root —
// the unprivileged attacker is stuck at the 35 ms default. This ablation
// quantifies what root-level sampling would add: shorter conversions mean
// more (noisier) features per observation window.

#include <cstdio>

#include "amperebleed/core/fingerprint.hpp"
#include "amperebleed/core/report.hpp"
#include "amperebleed/util/cli.hpp"
#include "amperebleed/util/strings.hpp"
#include "obs_session.hpp"

int main(int argc, char** argv) {
  using namespace amperebleed;
  const util::CliArgs args(argc, argv);
  bench::ObsSession session(args, "ablation_update_interval");

  std::puts("Ablation: DPU fingerprinting accuracy vs hwmon update interval");
  std::puts("(reduced zoo; 2 s observation window)\n");

  core::TextTable table({"Update interval", "AVG setting", "Features (2 s)",
                         "Top-1", "Top-5"});

  struct Setting {
    std::uint16_t avg;
    const char* label;
  };
  // 2.2 ms per (shunt+bus) round at CT=1.1 ms; avg in {1,4,16}.
  const Setting settings[] = {{1, "2.2 ms"}, {4, "8.8 ms"}, {16, "35.2 ms"}};

  for (const auto& s : settings) {
    core::FingerprintConfig config;
    config.model_limit = static_cast<std::size_t>(args.get_int("models", 8));
    config.traces_per_model =
        static_cast<std::size_t>(args.get_int("traces", 10));
    config.forest.n_trees =
        static_cast<std::size_t>(args.get_int("trees", 40));
    config.trace_duration = sim::seconds(2);
    config.durations_s = {2.0};
    config.sample_period = sim::microseconds(2'200LL * s.avg);
    config.sensor_avg_override = s.avg;
    config.seed = 0xab1;

    const auto traces = core::collect_fingerprint_traces(config);
    const auto result = core::evaluate_fingerprint(traces, config);
    // Row 3 of table3_channels() is FPGA current — the strongest channel.
    const auto& cell = result.cells[3][0];
    table.add_row({s.label, util::format("%u", s.avg),
                   util::format("%zu", traces.samples_per_trace),
                   core::fmt(cell.top1, 3), core::fmt(cell.top5, 3)});
  }
  std::fputs(table.render().c_str(), stdout);

  std::puts("\nReading: faster conversions trade on-chip averaging (AVG=16 ->");
  std::puts("1) for temporal detail; with raw-trace features the extra,");
  std::puts("noisier dimensions do not help. The 35 ms default an");
  std::puts("unprivileged attacker is stuck with loses nothing — root-only");
  std::puts("reconfiguration is not the binding constraint of the attack.");
  session.finish();
  return 0;
}
