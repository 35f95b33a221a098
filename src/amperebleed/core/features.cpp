#include "amperebleed/core/features.hpp"

#include <stdexcept>

#include "amperebleed/obs/obs.hpp"

namespace amperebleed::core {

std::size_t samples_for_duration(sim::TimeNs duration, sim::TimeNs period) {
  if (period.ns <= 0) return 0;
  return static_cast<std::size_t>(duration.ns / period.ns);
}

void add_trace(ml::Dataset& dataset, const Trace& trace, int label,
               std::size_t feature_count) {
  // Hand the prefix to the dataset as a subspan of the trace's own storage:
  // Trace::prefix() would materialize a temporary vector only for add() to
  // copy it again.
  const auto values = trace.values();
  if (feature_count > values.size()) {
    throw std::invalid_argument("Trace::prefix: trace too short");
  }
  dataset.add(values.first(feature_count), label);
}

void add_trace(ml::Dataset& dataset, const Trace& trace, int label,
               std::size_t feature_count, GapPolicy policy) {
  if (trace.fully_valid()) {
    add_trace(dataset, trace, label, feature_count);
    return;
  }
  if (policy == GapPolicy::Drop) {
    throw std::invalid_argument(
        "add_trace: GapPolicy::Drop would change the feature length; use "
        "hold-last or linear-interpolate");
  }
  // Preprocess stage: only holey traces pay it — gapless traces take the
  // fast path above, so clean runs report a (correctly) empty stage.
  obs::StageSpan stage(obs::Stage::Preprocess);
  stage.span().set_arg("samples", static_cast<double>(trace.size()));
  std::vector<double> filled = fill_gaps(trace, policy);
  if (filled.size() < feature_count) {
    throw std::invalid_argument("add_trace: trace too short");
  }
  filled.resize(feature_count);
  dataset.add(filled, label);
}

ml::Dataset build_dataset(
    const std::vector<std::vector<Trace>>& traces_by_label,
    std::size_t feature_count) {
  ml::Dataset dataset(feature_count);
  std::size_t total = 0;
  for (const auto& group : traces_by_label) total += group.size();
  dataset.reserve(total);
  for (std::size_t label = 0; label < traces_by_label.size(); ++label) {
    for (const auto& trace : traces_by_label[label]) {
      add_trace(dataset, trace, static_cast<int>(label), feature_count);
    }
  }
  return dataset;
}

}  // namespace amperebleed::core
