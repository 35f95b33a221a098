#include "amperebleed/core/online.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "amperebleed/obs/obs.hpp"

namespace amperebleed::core {

OnlineFingerprinter::OnlineFingerprinter(OnlineFingerprinterConfig config)
    : config_(config), forest_(config.forest) {}

OnlineFingerprinter OnlineFingerprinter::restore(
    OnlineFingerprinterConfig config, RestoredState state) {
  if (state.trained && state.arena.empty()) {
    throw std::invalid_argument(
        "OnlineFingerprinter::restore: trained state without a forest");
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
    if (config.drift.enabled && state.drift_reference.has_value()) {
      // Rebuilt with an empty observation window: drift monitoring is
      // observation-only, so restored classify verdicts stay bit-identical.
      fp.monitor_ = std::make_unique<obs::DriftMonitor>(
          std::move(*state.drift_reference), config.drift);
    }
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
  const auto features = trace.prefix(width);
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
  if (config_.drift.enabled) {
    monitor_ = std::make_unique<obs::DriftMonitor>(
        obs::ReferenceProfile::from_dataset(data_, config_.drift.sketch_bins),
        config_.drift);
  }
}

void OnlineFingerprinter::reset_drift_window() {
  if (monitor_) monitor_->reset_window();
}

OnlineFingerprinter::Verdict OnlineFingerprinter::verdict_from_proba(
    std::span<const double> proba) const {
  Verdict verdict;
  verdict.ranking.reserve(proba.size());
  for (std::size_t c = 0; c < proba.size(); ++c) {
    verdict.ranking.emplace_back(class_names_[c], proba[c]);
  }
  std::stable_sort(verdict.ranking.begin(), verdict.ranking.end(),
                   [](const auto& a, const auto& b) {
                     return a.second > b.second;
                   });
  verdict.model_name = verdict.ranking[0].first;
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
  if (!trained_) throw std::logic_error("OnlineFingerprinter: not trained");
  // Classify stage: one online request, the unit the SLO engine meters.
  obs::StageSpan stage(obs::Stage::Classify);
  stage.span().set_attr("channel", channel_name(trace.channel()));
  const auto features = trace.prefix(feature_count_);
  Verdict verdict = verdict_from_proba(forest_.predict_proba(features));
  if (monitor_) feed_monitor(features, verdict);
  return verdict;
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
  // Materialize feature rows first (prefix() copies), then hand the whole
  // batch to the forest in one predict_proba_many call: the cache-blocked
  // SoA arena kernel streams the packed trees once per block of rows (no
  // per-tree pointer chasing), blocks run in parallel on the thread pool,
  // and results come back in input order.
  std::vector<std::vector<double>> rows;
  rows.reserve(traces.size());
  for (const Trace* trace : traces) {
    rows.push_back(trace->prefix(feature_count_));
  }
  std::vector<std::span<const double>> row_spans;
  row_spans.reserve(rows.size());
  for (const auto& row : rows) row_spans.emplace_back(row);

  const auto probas = forest_.predict_proba_many(row_spans);
  std::vector<Verdict> verdicts;
  verdicts.reserve(probas.size());
  for (std::size_t i = 0; i < probas.size(); ++i) {
    verdicts.push_back(verdict_from_proba(probas[i]));
    // Feed the monitor serially in input order — drift evaluation is a pure
    // function of the observation sequence, so batch classification stays
    // bit-identical to per-trace classify() at any pool size.
    if (monitor_) feed_monitor(rows[i], verdicts.back());
  }
  return verdicts;
}

void OnlineFingerprinter::feed_monitor(std::span<const double> features,
                                       const Verdict& verdict) const {
  // Winner index = position of the verdict's model in enrollment order;
  // matches verdict_from_proba's stable_sort first-max tie-break.
  const auto it = std::find(class_names_.begin(), class_names_.end(),
                            verdict.model_name);
  const int winner =
      static_cast<int>(std::distance(class_names_.begin(), it));
  monitor_->observe(features, winner, verdict.confidence);
}

}  // namespace amperebleed::core
