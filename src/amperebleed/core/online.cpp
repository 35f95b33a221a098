#include "amperebleed/core/online.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "amperebleed/obs/obs.hpp"

namespace amperebleed::core {

namespace {

/// The first `width` samples of a trace as a borrowed feature row. Throws
/// std::invalid_argument if the trace is shorter.
std::span<const double> feature_row(const Trace& trace, std::size_t width) {
  if (trace.size() < width) {
    throw std::invalid_argument(
        "OnlineFingerprinter: trace shorter than the feature width");
  }
  return trace.values().first(width);
}

}  // namespace

OnlineFingerprinter::OnlineFingerprinter(OnlineFingerprinterConfig config)
    : config_(config), forest_(config.forest) {}

OnlineFingerprinter OnlineFingerprinter::restore(
    OnlineFingerprinterConfig config, RestoredState state) {
  if (state.trained && state.arena.empty()) {
    throw std::invalid_argument(
        "OnlineFingerprinter::restore: trained state without a forest");
  }
  if (state.trained && state.data.empty()) {
    throw std::invalid_argument(
        "OnlineFingerprinter::restore: trained state without enrollment "
        "data");
  }
  if (!state.data.empty() &&
      state.data.feature_count() != state.feature_count) {
    throw std::invalid_argument(
        "OnlineFingerprinter::restore: dataset width disagrees with "
        "feature_count");
  }
  for (const int label : state.data.labels()) {
    if (label < 0 ||
        static_cast<std::size_t>(label) >= state.class_names.size()) {
      throw std::invalid_argument(
          "OnlineFingerprinter::restore: label outside class_names");
    }
  }
  // The codec proves the arena walkable, not that it fits this tenant: a
  // split feature past the trace prefix would read outside every classified
  // row, and a class past class_names outside the verdict's name table. An
  // older snapshot can carry a trailing class name no tree predicts, so
  // fewer classes than names is harmless.
  if (state.trained) {
    for (const std::int32_t f : state.arena.feature) {
      if (f >= 0 && static_cast<std::size_t>(f) >= state.feature_count) {
        throw std::invalid_argument(
            "OnlineFingerprinter::restore: split feature outside the trace "
            "prefix");
      }
    }
    if (static_cast<std::size_t>(state.arena.class_count) >
        state.class_names.size()) {
      throw std::invalid_argument(
          "OnlineFingerprinter::restore: forest classes outside class_names");
    }
  }
  OnlineFingerprinter fp(config);
  fp.feature_count_ = state.feature_count;
  fp.class_names_ = std::move(state.class_names);
  fp.data_ = std::move(state.data);
  if (fp.feature_count_ != 0 && fp.data_.empty() &&
      fp.data_.feature_count() != fp.feature_count_) {
    fp.data_ = ml::Dataset(fp.feature_count_);
  }
  if (state.trained) {
    fp.forest_ =
        ml::RandomForest::from_arena(config.forest, std::move(state.arena));
    fp.trained_ = true;
    fp.start_drift_monitor();
  }
  return fp;
}

void OnlineFingerprinter::enroll(const Trace& trace,
                                 const std::string& model_name) {
  if (trained_) {
    throw std::logic_error("OnlineFingerprinter: already trained");
  }
  if (trace.empty()) {
    throw std::invalid_argument("OnlineFingerprinter: empty trace");
  }
  // Nothing is committed until the row is accepted (long enough, finite):
  // a failed enroll must leave no phantom class and no feature width.
  const std::size_t width = feature_count_ == 0 ? trace.size() : feature_count_;
  const auto features = feature_row(trace, width);
  const auto it =
      std::find(class_names_.begin(), class_names_.end(), model_name);
  const auto label =
      static_cast<int>(std::distance(class_names_.begin(), it));
  if (feature_count_ == 0) data_ = ml::Dataset(width);
  data_.add(features, label);
  feature_count_ = width;
  if (it == class_names_.end()) class_names_.push_back(model_name);
}

void OnlineFingerprinter::train() {
  if (trained_) throw std::logic_error("OnlineFingerprinter: already trained");
  if (class_names_.size() < 2) {
    throw std::logic_error(
        "OnlineFingerprinter: need at least 2 enrolled classes");
  }
  forest_ = ml::RandomForest(config_.forest);
  forest_.fit(data_);
  trained_ = true;
  start_drift_monitor();
}

void OnlineFingerprinter::start_drift_monitor() {
  if (!config_.drift.enabled) return;
  monitor_ = std::make_unique<obs::DriftMonitor>(
      obs::ReferenceProfile::from_dataset(data_, config_.drift.sketch_bins),
      config_.drift);
}

void OnlineFingerprinter::reset_drift_window() {
  if (monitor_) monitor_->reset_window();
}

OnlineFingerprinter::Verdict OnlineFingerprinter::verdict_from_proba(
    std::span<const double> proba) const {
  Verdict verdict;
  const auto order = ml::top_k_from_proba(proba, proba.size());
  verdict.ranking.reserve(order.size());
  for (const int c : order) {
    verdict.ranking.emplace_back(c, proba[static_cast<std::size_t>(c)]);
  }
  verdict.model_name = class_names_[static_cast<std::size_t>(order[0])];
  verdict.confidence = verdict.ranking[0].second;
  verdict.margin = verdict.ranking.size() > 1
                       ? verdict.confidence - verdict.ranking[1].second
                       : verdict.confidence;
  verdict.known = verdict.confidence >= config_.min_confidence &&
                  verdict.margin >= config_.min_margin;
  return verdict;
}

OnlineFingerprinter::Verdict OnlineFingerprinter::classify(
    const Trace& trace) const {
  const Trace* const row = &trace;
  return std::move(
      classify_many(std::span<const Trace* const>(&row, 1)).front());
}

std::vector<OnlineFingerprinter::Verdict> OnlineFingerprinter::classify_many(
    const std::vector<Trace>& traces) const {
  std::vector<const Trace*> rows;
  rows.reserve(traces.size());
  for (const Trace& trace : traces) rows.push_back(&trace);
  return classify_many(std::span<const Trace* const>(rows));
}

std::vector<OnlineFingerprinter::Verdict> OnlineFingerprinter::classify_many(
    std::span<const Trace* const> traces) const {
  if (!trained_) throw std::logic_error("OnlineFingerprinter: not trained");
  obs::StageSpan stage(obs::Stage::Classify);
  stage.span().set_arg("batch", static_cast<double>(traces.size()));
  // Borrow every row's feature prefix, then hand the whole batch to the
  // forest in one predict_proba_many call: the cache-blocked SoA arena
  // kernel streams the packed trees once per block of rows, blocks run in
  // parallel on the thread pool, and results come back in input order.
  std::vector<std::span<const double>> rows;
  rows.reserve(traces.size());
  for (const Trace* trace : traces) {
    rows.push_back(feature_row(*trace, feature_count_));
  }
  const auto probas = forest_.predict_proba_many(rows);
  std::vector<Verdict> verdicts;
  verdicts.reserve(probas.size());
  for (std::size_t i = 0; i < probas.size(); ++i) {
    verdicts.push_back(verdict_from_proba(probas[i]));
    // Feed the monitor serially in input order — drift evaluation is a pure
    // function of the observation sequence, so it is the same at any pool
    // size and however the traces were batched.
    if (monitor_) {
      const Verdict& verdict = verdicts.back();
      monitor_->observe(rows[i], verdict.ranking[0].first,
                        verdict.confidence);
    }
  }
  return verdicts;
}

}  // namespace amperebleed::core
