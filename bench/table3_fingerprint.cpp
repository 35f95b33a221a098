// Reproduces Table III: random-forest fingerprinting accuracy of DPU
// accelerators across the six hwmon observation channels and observation
// windows of 1-5 s (10-fold cross-validation, RF with 100 trees / depth 32).
//
// The full paper configuration (39 models) runs by default; use --models or
// --quick to scale down for smoke runs.
//
// Flags: --models N   zoo subset size (default 39 = full)
//        --traces N   traces per model (default 20)
//        --trees N    forest size (default 100)
//        --folds N    CV folds (default 10)
//        --threads N  worker threads (default: hardware concurrency)
//        --quick      = --models 10 --traces 10 --trees 40

#include <cstdio>

#include "amperebleed/core/fingerprint.hpp"
#include "amperebleed/core/report.hpp"
#include "amperebleed/util/cli.hpp"
#include "amperebleed/util/strings.hpp"
#include "obs_session.hpp"

int main(int argc, char** argv) {
  using namespace amperebleed;
  const util::CliArgs args(argc, argv);
  bench::ObsSession session(args, "table3_fingerprint");

  core::FingerprintConfig config;
  config.model_limit = static_cast<std::size_t>(
      args.get_int("models", args.has("quick") ? 10 : 39));
  config.traces_per_model = static_cast<std::size_t>(
      args.get_int("traces", args.has("quick") ? 10 : 20));
  config.forest.n_trees = static_cast<std::size_t>(
      args.get_int("trees", args.has("quick") ? 40 : 100));
  config.forest.tree.max_depth = 32;
  config.folds = static_cast<std::size_t>(args.get_int("folds", 10));
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 0xdf3));

  std::printf("Table III: encrypted-accelerator fingerprinting — %zu models, "
              "%zu traces each,\nRF(%zu trees, depth %d), %zu-fold CV\n\n",
              config.model_limit == 0 ? 39 : config.model_limit,
              config.traces_per_model, config.forest.n_trees,
              config.forest.tree.max_depth, config.folds);

  std::puts("Collecting traces (offline phase)...");
  const auto traces = core::collect_fingerprint_traces(config);
  std::printf("  %zu traces per channel, %zu features each\n\n",
              traces.per_channel.front().size(), traces.samples_per_trace);

  std::puts("Training / cross-validating (online phase)...");
  const auto result = core::evaluate_fingerprint(traces, config);

  std::vector<std::string> headers = {"Sensor", "Metric"};
  for (double d : result.durations_s) {
    headers.push_back(util::format("%.0f s", d));
  }
  core::TextTable table(std::move(headers));
  const char* paper_rows[] = {
      "Current (Full-power CPU)", "Current (Low-power CPU)",
      "Current (DRAM)",           "Current (FPGA)",
      "Voltage (FPGA)",           "Power (FPGA)",
  };
  for (std::size_t c = 0; c < result.cells.size(); ++c) {
    std::vector<std::string> top1 = {paper_rows[c], "Top-1"};
    std::vector<std::string> top5 = {"", "Top-5"};
    for (const auto& cell : result.cells[c]) {
      top1.push_back(core::fmt(cell.top1, 3));
      top5.push_back(core::fmt(cell.top5, 3));
    }
    table.add_row(top1);
    table.add_row(top5);
  }
  std::fputs(table.render().c_str(), stdout);

  std::printf("\nRandom-guess baseline: %.4f\n", result.random_guess_top1());
  std::puts("Paper reference (5 s, top-1): FPD-I 0.837, LPD-I 0.557, "
            "DRAM-I 0.958,\n  FPGA-I 0.997, FPGA-V 0.116, FPGA-P 0.989");

  session.record().set_integer("models",
                               static_cast<std::int64_t>(config.model_limit));
  session.record().set_number("random_guess_top1", result.random_guess_top1());
  // Headline: FPGA-current top-1 at the longest observation window.
  if (!result.cells.empty() && !result.cells[3].empty()) {
    session.record().set_number("fpga_current_top1",
                                result.cells[3].back().top1);
  }
  session.finish();
  return 0;
}
