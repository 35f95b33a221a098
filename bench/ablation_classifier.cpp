// Ablation A7: how much of Table III is the channel vs. the classifier.
// Re-runs the fingerprinting CV on the FPGA-current channel with the
// paper's random forest, k-NN, and a nearest-centroid baseline. The channel
// is strong enough that even the trivial centroid model performs well —
// evidence that the leak, not the learner, carries the attack.

#include <cstdio>
#include <memory>

#include "amperebleed/core/fingerprint.hpp"
#include "amperebleed/core/report.hpp"
#include "amperebleed/ml/baselines.hpp"
#include "amperebleed/util/cli.hpp"
#include "amperebleed/util/strings.hpp"
#include "obs_session.hpp"

int main(int argc, char** argv) {
  using namespace amperebleed;
  const util::CliArgs args(argc, argv);
  bench::ObsSession session(args, "ablation_classifier");

  core::FingerprintConfig config;
  config.model_limit = static_cast<std::size_t>(args.get_int("models", 12));
  config.traces_per_model =
      static_cast<std::size_t>(args.get_int("traces", 12));
  config.trace_duration = sim::seconds(3);
  config.durations_s = {3.0};
  config.folds = static_cast<std::size_t>(args.get_int("folds", 6));
  config.seed = 0xab7;

  std::printf("Ablation: classifier choice on the FPGA-current channel "
              "(%zu models, %zu traces each, 3 s window)\n\n",
              config.model_limit, config.traces_per_model);

  std::puts("Collecting traces...");
  const auto traces = core::collect_fingerprint_traces(config);
  // Channel 3 of table3_channels() is FPGA current.
  const ml::Dataset& data = traces.per_channel[3];

  core::TextTable table({"Classifier", "Top-1 accuracy", "Notes"});
  const auto evaluate = [&](auto factory) {
    return ml::cross_validate_classifier(data, factory, config.folds,
                                         config.seed)
        .top1_accuracy;
  };

  const double forest = evaluate([&](std::uint64_t seed) {
    ml::ForestConfig fc;
    fc.n_trees = 100;
    fc.seed = seed;
    return std::make_unique<ml::ForestClassifier>(fc);
  });
  table.add_row({"Random forest (paper)", core::fmt(forest, 3),
                 "100 trees, depth 32"});

  const double knn = evaluate([](std::uint64_t) {
    return std::make_unique<ml::KnnClassifier>(5);
  });
  table.add_row({"k-NN (k=5)", core::fmt(knn, 3), "raw Euclidean"});

  const double centroid = evaluate([](std::uint64_t) {
    return std::make_unique<ml::CentroidClassifier>();
  });
  table.add_row({"Nearest centroid", core::fmt(centroid, 3),
                 "one mean trace per model"});

  std::fputs(table.render().c_str(), stdout);
  std::printf("\nRandom-guess baseline: %.3f\n",
              1.0 / static_cast<double>(config.model_limit));
  std::puts("Reading: even the trivial baselines are competitive with the");
  std::puts("paper's forest — the information lives in the current channel");
  std::puts("itself, not in the learner.");

  session.record().set_number("forest_top1", forest);
  session.record().set_number("knn_top1", knn);
  session.record().set_number("centroid_top1", centroid);
  session.finish();
  return 0;
}
