#pragma once
// Streaming drift detection for the online fingerprinting service: is the
// model still seeing the data it was enrolled on?
//
// At enrollment time a ReferenceProfile is captured from the training
// ml::Dataset — one fixed-bin StreamingSketch plus a deterministic value
// subsample per feature dimension, and the class priors. At serving time a
// DriftMonitor keeps a sliding window of live feature vectors and prediction
// outputs and, on a fixed observation cadence, scores the window against the
// reference:
//
//   * PSI (population stability index) per dimension over the reference's
//     bin layout, aggregated as the mean across dimensions (the mean
//     averages out the small-window bias that makes per-dim PSI noisy);
//   * two-sample Kolmogorov-Smirnov per dimension (stats::ks_test) between
//     the window values and the reference subsample, Bonferroni-corrected
//     across dimensions;
//   * a chi-square class-mix test (stats::chi_square_gof) of the window's
//     predicted-class counts against the enrollment priors.
//
// Scores drive a deterministic Ok -> Warning -> Drifted state machine with
// pinned thresholds: escalation needs `confirm` consecutive breaching
// evaluations, de-escalation needs `clear` consecutive clean ones. Every
// decision is a pure function of the observation sequence — feeding the
// monitor in input order (classify_many does) makes reports bit-identical
// at any thread-pool size.
//
// Everything here is pure observation: monitors never touch classifier
// state, RNG streams or experiment outputs.

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "amperebleed/ml/dataset.hpp"
#include "amperebleed/util/json.hpp"

namespace amperebleed::obs {

/// Fixed-bin histogram over [lo, hi]. Deterministic: the bin layout is
/// pinned at construction. Values outside [lo, hi] land in the edge bins,
/// so the layout captured at enrollment keeps working when live data walks
/// out of range (that is the signal).
class StreamingSketch {
 public:
  static constexpr std::size_t kDefaultBins = 8;

  StreamingSketch() = default;
  StreamingSketch(double lo, double hi, std::size_t bins = kDefaultBins);

  void observe(double v);

  [[nodiscard]] std::size_t bins() const { return counts_.size(); }
  [[nodiscard]] double lo() const { return lo_; }
  [[nodiscard]] double hi() const { return hi_; }
  [[nodiscard]] std::uint64_t total() const { return n_; }
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const {
    return counts_;
  }

  /// Per-bin fractions with additive smoothing: (c_i + epsilon) /
  /// (n + bins * epsilon). Defined (uniform) even for an empty sketch.
  [[nodiscard]] std::vector<double> fractions(double epsilon = 0.5) const;

  friend bool operator==(const StreamingSketch&,
                         const StreamingSketch&) = default;

 private:
  double lo_ = 0.0;
  double hi_ = 1.0;
  std::vector<std::uint64_t> counts_;
  std::uint64_t n_ = 0;
};

/// PSI between two sketches with identical bin layouts, using smoothed
/// fractions (so empty bins never divide by zero). The conventional scale:
/// < 0.1 stable, 0.1-0.25 moderate shift, > 0.25 significant — but window
/// size biases small-sample PSI upward, so DriftConfig pins thresholds on
/// the cross-dimension mean instead of any single value.
/// Throws std::invalid_argument on layout mismatch.
double population_stability_index(const StreamingSketch& reference,
                                  const StreamingSketch& current);

/// Everything the drift monitor needs to remember about enrollment:
/// per-dimension sketches + deterministic value subsamples (row-stride
/// sampling, so the subsample is a pure function of the dataset), and the
/// class priors. It is never persisted: a recovered serving process rebuilds
/// it from the restored enrollment dataset, the same way train() built it.
struct ReferenceProfile {
  /// Cap on retained raw values per dimension (feeds the KS test).
  static constexpr std::size_t kMaxSubsample = 128;

  std::vector<StreamingSketch> feature_sketches;       // one per dimension
  std::vector<std::vector<double>> feature_samples;    // one per dimension
  std::vector<std::uint64_t> class_counts;             // enrollment priors
  std::uint64_t rows = 0;

  [[nodiscard]] bool empty() const { return feature_sketches.empty(); }
  [[nodiscard]] std::size_t dims() const { return feature_sketches.size(); }

  /// Capture a profile from a training dataset. Bin ranges span each
  /// dimension's [min, max] padded by 5% so quantization-edge values do not
  /// alias into the overflow bins on clean data.
  static ReferenceProfile from_dataset(
      const ml::Dataset& data, std::size_t bins = StreamingSketch::kDefaultBins);

  friend bool operator==(const ReferenceProfile&,
                         const ReferenceProfile&) = default;
};

enum class DriftState { Ok, Warning, Drifted };
inline constexpr std::size_t kDriftStateCount = 3;
std::string_view drift_state_name(DriftState s);

struct DriftConfig {
  /// Master switch: when false, OnlineFingerprinter never builds a monitor
  /// and classification stays exactly the pre-drift code path.
  bool enabled = false;
  /// Monitor name in /quality and metrics.
  std::string name = "online_fingerprinter";
  /// Sliding-window capacity, in observations (classify calls).
  std::size_t window = 32;
  /// Evaluate every `stride` observations once the window is full.
  std::size_t stride = 8;
  /// Consecutive breaching evaluations required to escalate the state.
  std::size_t confirm = 2;
  /// Consecutive clean evaluations required to fall back to Ok.
  std::size_t clear = 4;
  /// Thresholds on the mean PSI across feature dimensions.
  double psi_warning = 0.50;
  double psi_drifted = 1.00;
  /// Per-dimension KS p-value floors; Bonferroni-divided by dims() before
  /// comparison against the minimum p across dimensions.
  double ks_alpha_warning = 1e-4;
  double ks_alpha_drifted = 1e-7;
  /// Chi-square class-mix p-value floors.
  double chi2_alpha_warning = 1e-4;
  double chi2_alpha_drifted = 1e-7;
  /// Bin count used when capturing the reference profile.
  std::size_t sketch_bins = StreamingSketch::kDefaultBins;
};

/// One evaluation's scores, plus the severity they imply in isolation.
struct DriftScores {
  double psi_mean = 0.0;
  double psi_max = 0.0;
  std::size_t psi_argmax = 0;  // dimension with the largest PSI
  double ks_min_p = 1.0;
  double ks_max_d = 0.0;
  std::size_t ks_argmin = 0;  // dimension with the smallest KS p
  double class_chi2 = 0.0;
  double class_p = 1.0;
  double confidence_mean = 0.0;  // window mean winner confidence
  DriftState severity = DriftState::Ok;
};

struct DriftReport {
  std::string name;
  DriftState state = DriftState::Ok;
  std::uint64_t observations = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t warnings = 0;  // transitions into Warning
  std::uint64_t drifts = 0;    // transitions into Drifted
  /// Observation count at the first escalation (-1: never happened). The
  /// bench reports detection latency as this minus the injection point.
  std::int64_t first_warning_obs = -1;
  std::int64_t first_drifted_obs = -1;
  DriftScores last;  // scores of the most recent evaluation

  [[nodiscard]] util::Json to_json() const;
};

/// Sliding-window drift monitor. Thread-safe: observe()/report() take an
/// internal mutex, so a serving thread can snapshot /quality while the
/// classifier feeds observations. Construction registers the monitor with
/// the process QualityHub (see quality.hpp); destruction deregisters it.
class DriftMonitor {
 public:
  DriftMonitor(ReferenceProfile reference, DriftConfig config);
  ~DriftMonitor();

  DriftMonitor(const DriftMonitor&) = delete;
  DriftMonitor& operator=(const DriftMonitor&) = delete;

  /// Feed one classified observation: the feature vector the forest saw,
  /// the winning class index, and its probability. Evaluates the window on
  /// the configured cadence; call in input order for bit-reproducibility.
  void observe(std::span<const double> features, int predicted_class,
               double confidence);

  [[nodiscard]] DriftState state() const;
  [[nodiscard]] DriftReport report() const;
  [[nodiscard]] const ReferenceProfile& reference() const { return ref_; }
  [[nodiscard]] const DriftConfig& config() const { return cfg_; }

  /// Drop the window and all counters, returning to Ok with zero
  /// observations (the reference profile is kept). Used between bench legs.
  void reset_window();

 private:
  /// Score the current window and advance the state machine. Caller holds
  /// mu_; only runs on full windows at the stride cadence.
  void evaluate_locked();
  void publish_metrics_locked(const DriftScores& scores) const;

  const ReferenceProfile ref_;
  const DriftConfig cfg_;

  mutable std::mutex mu_;
  std::vector<std::vector<double>> rows_;  // ring buffer, capacity window
  std::vector<int> classes_;               // parallel to rows_
  std::vector<double> confidences_;        // parallel to rows_
  std::size_t ring_pos_ = 0;
  bool ring_full_ = false;

  DriftState state_ = DriftState::Ok;
  std::size_t breach_streak_ = 0;  // consecutive evals at severity >= Warning
  std::size_t drift_streak_ = 0;   // consecutive evals at severity == Drifted
  std::size_t clean_streak_ = 0;   // consecutive evals at severity == Ok
  std::uint64_t observations_ = 0;
  std::uint64_t evaluations_ = 0;
  std::uint64_t warnings_ = 0;
  std::uint64_t drifts_ = 0;
  std::int64_t first_warning_obs_ = -1;
  std::int64_t first_drifted_obs_ = -1;
  DriftScores last_;
};

}  // namespace amperebleed::obs
