#pragma once
// The deployable form of the fingerprinting attack, mirroring the paper's
// two phases as a stateful service:
//   * offline: enroll labelled traces of known accelerators, train once;
//   * online:  classify black-box traces, with open-set rejection so that a
//     model outside the enrolled zoo yields "unknown" rather than a
//     confidently wrong answer.

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "amperebleed/core/trace.hpp"
#include "amperebleed/ml/dataset.hpp"
#include "amperebleed/ml/random_forest.hpp"
#include "amperebleed/obs/drift.hpp"

namespace amperebleed::core {

struct OnlineFingerprinterConfig {
  ml::ForestConfig forest{};
  /// Reject when the winner's averaged forest probability is below this.
  double min_confidence = 0.30;
  /// Reject when (top1 - top2) probability margin is below this.
  double min_margin = 0.05;
  /// Drift monitoring (off by default). With drift.enabled, train() and
  /// restore() capture an obs::ReferenceProfile from the enrollment dataset
  /// and classify / classify_many feed every prediction to an
  /// obs::DriftMonitor — pure observation, verdicts are unchanged.
  obs::DriftConfig drift{};
};

class OnlineFingerprinter {
 public:
  explicit OnlineFingerprinter(OnlineFingerprinterConfig config = {});

  /// Everything a persisted fingerprinter needs to come back bit-identical,
  /// and nothing that can be recomputed from it (persist::TenantState
  /// extends this with a tenant's lifecycle fields).
  struct RestoredState {
    std::size_t feature_count = 0;
    std::vector<std::string> class_names;
    ml::Dataset data;
    bool trained = false;
    ml::ForestArena arena;  // the fitted forest; non-empty when trained
  };

  /// Rebuild a fingerprinter from persisted state. Classify verdicts on the
  /// restored instance are bit-identical to the original (the forest arena
  /// round-trips doubles exactly). A trained instance with drift enabled
  /// gets its monitor back as train() built it: the reference recomputed
  /// from the dataset, the observation window empty (drift state is
  /// observation-only, so verdicts are unchanged either way). An untrained
  /// state starts no monitor, so a released model (release_model(): empty
  /// dataset, no forest) restores to the same released model. Throws
  /// std::invalid_argument on inconsistent state (trained without a forest
  /// or without data, class/label mismatch, a split feature >=
  /// feature_count, more forest classes than class_names).
  [[nodiscard]] static OnlineFingerprinter restore(
      OnlineFingerprinterConfig config, RestoredState state);

  /// Offline phase: add one labelled trace. The first enrollment fixes the
  /// feature width; later traces must be at least as long (extra samples
  /// are ignored). Throws after train().
  void enroll(const Trace& trace, const std::string& model_name);

  /// Fit the forest. Throws if fewer than 2 classes are enrolled.
  void train();

  struct Verdict {
    bool known = false;       // false = rejected as outside the enrolled set
    std::string model_name;   // winner (also set when rejected, for triage)
    double confidence = 0.0;  // winner's probability
    double margin = 0.0;      // top1 - top2 probability
    /// Every class as (class index, probability), ranked by the Table III
    /// rule ml::top_k_from_proba: most probable first, the smaller class
    /// index first on a tie. Indices name class_names() entries; model_name
    /// is the only name a verdict resolves.
    std::vector<std::pair<int, double>> ranking;
  };

  /// Online phase: classify one observed trace — classify_many over a batch
  /// of one. Throws if not trained or the trace is shorter than the enrolled
  /// feature width.
  [[nodiscard]] Verdict classify(const Trace& trace) const;

  /// Classify a batch of observed traces in one pass. Forest inference for
  /// the whole batch runs through RandomForest::predict_proba_many, so the
  /// rows are scored in parallel on the util::ThreadPool while the verdicts
  /// come back in input order. Throws std::invalid_argument if any trace is
  /// shorter than the enrolled feature width.
  [[nodiscard]] std::vector<Verdict> classify_many(
      const std::vector<Trace>& traces) const;

  /// The one scoring path. Traces are borrowed and so are their feature
  /// prefixes: no trace or feature row is copied. The serving layer
  /// coalesces queued requests into one sweep through here. Every pointer
  /// must be non-null and outlive the call.
  [[nodiscard]] std::vector<Verdict> classify_many(
      std::span<const Trace* const> traces) const;

  [[nodiscard]] bool trained() const { return trained_; }
  [[nodiscard]] std::size_t enrolled_traces() const { return data_.size(); }
  [[nodiscard]] std::size_t feature_count() const { return feature_count_; }
  [[nodiscard]] const std::vector<std::string>& class_names() const {
    return class_names_;
  }
  /// The enrollment dataset (persisted so a recovered tenant can keep
  /// enrolling / retrain exactly where it left off).
  [[nodiscard]] const ml::Dataset& enrollment_data() const { return data_; }
  /// The fitted forest (meaningful once trained()).
  [[nodiscard]] const ml::RandomForest& forest() const { return forest_; }

  /// The drift monitor (nullptr unless config.drift.enabled and trained).
  [[nodiscard]] obs::DriftMonitor* drift_monitor() { return monitor_.get(); }
  [[nodiscard]] const obs::DriftMonitor* drift_monitor() const {
    return monitor_.get();
  }
  /// Clear the monitor's window and state (reference kept). No-op untrained
  /// or with drift disabled. Used between evaluation legs.
  void reset_drift_window();
  /// Free the model of a fingerprinter that will never enroll or classify
  /// again (a retired tenant): the enrollment dataset (left empty at the
  /// same feature width), the forest and the drift monitor (which detaches
  /// it from the obs::QualityHub). feature_count() and class_names() stay;
  /// trained() turns false.
  void release_model();

 private:
  /// With drift enabled, a monitor over the reference profile of data_.
  void start_drift_monitor();
  /// Rank classes by probability and apply the open-set rejection
  /// thresholds.
  [[nodiscard]] Verdict verdict_from_proba(std::span<const double> proba) const;

  OnlineFingerprinterConfig config_;
  std::size_t feature_count_ = 0;
  std::vector<std::string> class_names_;
  ml::Dataset data_;
  ml::RandomForest forest_;
  bool trained_ = false;
  /// Owned drift monitor; mutable because feeding observations is logically
  /// const classification (the monitor is observation-only state).
  mutable std::unique_ptr<obs::DriftMonitor> monitor_;
};

}  // namespace amperebleed::core
