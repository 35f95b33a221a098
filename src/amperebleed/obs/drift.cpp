#include "amperebleed/obs/drift.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "amperebleed/obs/obs.hpp"
#include "amperebleed/obs/quality.hpp"
#include "amperebleed/stats/hypothesis.hpp"
#include "amperebleed/util/strings.hpp"

namespace amperebleed::obs {

// ---------------------------------------------------------------------------
// StreamingSketch

StreamingSketch::StreamingSketch(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi) {
  if (bins == 0) {
    throw std::invalid_argument("StreamingSketch: need at least one bin");
  }
  if (!(lo < hi)) {
    // Degenerate range (constant feature): widen symmetrically so every
    // observation of the constant lands mid-histogram, not in an edge bin.
    const double pad = std::max(1e-9, std::fabs(lo) * 1e-9);
    lo_ = lo - pad;
    hi_ = hi + pad;
  }
  counts_.assign(bins, 0);
}

void StreamingSketch::observe(double v) {
  if (counts_.empty()) {
    throw std::logic_error("StreamingSketch::observe: default-constructed");
  }
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  auto idx = static_cast<std::int64_t>(std::floor((v - lo_) / width));
  idx = std::clamp<std::int64_t>(idx, 0,
                                 static_cast<std::int64_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  if (n_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++n_;
  sum_ += v;
  sum_sq_ += v * v;
}

void StreamingSketch::merge(const StreamingSketch& other) {
  if (lo_ != other.lo_ || hi_ != other.hi_ ||
      counts_.size() != other.counts_.size()) {
    throw std::invalid_argument("StreamingSketch::merge: bin layout mismatch");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  if (other.n_ > 0) {
    if (n_ == 0) {
      min_ = other.min_;
      max_ = other.max_;
    } else {
      min_ = std::min(min_, other.min_);
      max_ = std::max(max_, other.max_);
    }
  }
  n_ += other.n_;
  sum_ += other.sum_;
  sum_sq_ += other.sum_sq_;
}

void StreamingSketch::clear() {
  std::fill(counts_.begin(), counts_.end(), 0);
  n_ = 0;
  sum_ = 0.0;
  sum_sq_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

double StreamingSketch::mean() const {
  return n_ == 0 ? 0.0 : sum_ / static_cast<double>(n_);
}

double StreamingSketch::variance() const {
  if (n_ < 2) return 0.0;
  const double n = static_cast<double>(n_);
  const double m = sum_ / n;
  // Population variance; clamp the catastrophic-cancellation tail to zero.
  return std::max(0.0, sum_sq_ / n - m * m);
}

double StreamingSketch::min() const {
  return n_ == 0 ? std::numeric_limits<double>::infinity() : min_;
}

double StreamingSketch::max() const {
  return n_ == 0 ? -std::numeric_limits<double>::infinity() : max_;
}

std::vector<double> StreamingSketch::fractions(double epsilon) const {
  const double denom = static_cast<double>(n_) +
                       epsilon * static_cast<double>(counts_.size());
  std::vector<double> out(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    out[i] = (static_cast<double>(counts_[i]) + epsilon) / denom;
  }
  return out;
}

StreamingSketch::Raw StreamingSketch::raw() const {
  Raw raw;
  raw.lo = lo_;
  raw.hi = hi_;
  raw.counts = counts_;
  raw.n = n_;
  raw.sum = sum_;
  raw.sum_sq = sum_sq_;
  raw.min = min_;
  raw.max = max_;
  return raw;
}

StreamingSketch StreamingSketch::from_raw(Raw raw) {
  if (raw.counts.empty()) {
    throw std::runtime_error("StreamingSketch::from_raw: no bins");
  }
  StreamingSketch s;
  s.lo_ = raw.lo;
  s.hi_ = raw.hi;
  s.counts_ = std::move(raw.counts);
  s.n_ = raw.n;
  s.sum_ = raw.sum;
  s.sum_sq_ = raw.sum_sq;
  s.min_ = raw.min;
  s.max_ = raw.max;
  return s;
}

// ---------------------------------------------------------------------------
// PSI

double population_stability_index(const StreamingSketch& reference,
                                  const StreamingSketch& current) {
  if (reference.bins() != current.bins() || reference.lo() != current.lo() ||
      reference.hi() != current.hi()) {
    throw std::invalid_argument(
        "population_stability_index: bin layout mismatch");
  }
  const std::vector<double> p = reference.fractions();
  const std::vector<double> q = current.fractions();
  double psi = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    psi += (q[i] - p[i]) * std::log(q[i] / p[i]);
  }
  return psi;
}

// ---------------------------------------------------------------------------
// ReferenceProfile

ReferenceProfile ReferenceProfile::from_dataset(const ml::Dataset& data,
                                                std::size_t bins) {
  if (data.empty()) {
    throw std::invalid_argument("ReferenceProfile: empty dataset");
  }
  ReferenceProfile profile;
  profile.rows = data.size();
  const std::size_t dims = data.feature_count();
  profile.feature_sketches.reserve(dims);
  profile.feature_samples.reserve(dims);

  // Deterministic row subsample: a fixed stride over row order, identical
  // for every dimension, so the profile is a pure function of the dataset.
  const std::size_t take = std::min<std::size_t>(kMaxSubsample, data.size());
  const std::size_t stride = std::max<std::size_t>(1, data.size() / take);

  std::vector<double> col(data.size());
  for (std::size_t f = 0; f < dims; ++f) {
    for (std::size_t r = 0; r < data.size(); ++r) col[r] = data.row(r)[f];
    const auto [lo_it, hi_it] = std::minmax_element(col.begin(), col.end());
    // Pad 5% so quantization-edge values on clean data stay mid-histogram.
    const double span_width = *hi_it - *lo_it;
    const double pad = span_width > 0.0
                           ? 0.05 * span_width
                           : std::max(1e-9, std::fabs(*lo_it) * 1e-9);
    StreamingSketch sketch(*lo_it - pad, *hi_it + pad, bins);
    for (double v : col) sketch.observe(v);
    profile.feature_sketches.push_back(std::move(sketch));

    std::vector<double> sample;
    sample.reserve(take);
    for (std::size_t r = 0; r < data.size() && sample.size() < take;
         r += stride) {
      sample.push_back(col[r]);
    }
    profile.feature_samples.push_back(std::move(sample));
  }

  profile.class_counts.assign(static_cast<std::size_t>(data.class_count()), 0);
  for (int label : data.labels()) {
    ++profile.class_counts[static_cast<std::size_t>(label)];
  }
  return profile;
}

// ---------------------------------------------------------------------------
// DriftMonitor

std::string_view drift_state_name(DriftState s) {
  switch (s) {
    case DriftState::Ok: return "ok";
    case DriftState::Warning: return "warning";
    case DriftState::Drifted: return "drifted";
  }
  return "unknown";
}

DriftMonitor::DriftMonitor(ReferenceProfile reference, DriftConfig config)
    : ref_(std::move(reference)), cfg_(std::move(config)) {
  if (ref_.empty()) {
    throw std::invalid_argument("DriftMonitor: empty reference profile");
  }
  if (cfg_.window == 0 || cfg_.stride == 0 || cfg_.confirm == 0) {
    throw std::invalid_argument(
        "DriftMonitor: window, stride and confirm must be positive");
  }
  rows_.assign(cfg_.window, std::vector<double>());
  classes_.assign(cfg_.window, -1);
  confidences_.assign(cfg_.window, 0.0);
  quality_hub().attach(this);
}

DriftMonitor::~DriftMonitor() { quality_hub().detach(this); }

void DriftMonitor::observe(std::span<const double> features,
                           int predicted_class, double confidence) {
  if (features.size() != ref_.dims()) {
    throw std::invalid_argument(
        "DriftMonitor::observe: feature width does not match reference");
  }
  std::lock_guard<std::mutex> lock(mu_);
  rows_[ring_pos_].assign(features.begin(), features.end());
  classes_[ring_pos_] = predicted_class;
  confidences_[ring_pos_] = confidence;
  ring_pos_ = (ring_pos_ + 1) % cfg_.window;
  if (ring_pos_ == 0) ring_full_ = true;
  ++observations_;
  if (ring_full_ && observations_ % cfg_.stride == 0) {
    evaluate_locked();
  }
}

void DriftMonitor::evaluate_locked() {
  const std::size_t dims = ref_.dims();
  DriftScores scores;

  // Per-dimension PSI over the reference bin layout, plus the KS test
  // against the reference subsample. Window values are gathered in ring
  // order — both tests are order-invariant, so ring phase cannot leak in.
  std::vector<double> window_dim(cfg_.window);
  double psi_sum = 0.0;
  for (std::size_t f = 0; f < dims; ++f) {
    const StreamingSketch& ref_sketch = ref_.feature_sketches[f];
    StreamingSketch cur(ref_sketch.lo(), ref_sketch.hi(), ref_sketch.bins());
    for (std::size_t r = 0; r < cfg_.window; ++r) {
      window_dim[r] = rows_[r][f];
      cur.observe(window_dim[r]);
    }
    const double psi = population_stability_index(ref_sketch, cur);
    psi_sum += psi;
    if (f == 0 || psi > scores.psi_max) {
      scores.psi_max = psi;
      scores.psi_argmax = f;
    }
    const stats::KsResult ks =
        stats::ks_test(ref_.feature_samples[f], window_dim);
    if (f == 0 || ks.p_value < scores.ks_min_p) {
      scores.ks_min_p = ks.p_value;
      scores.ks_argmin = f;
    }
    scores.ks_max_d = std::max(scores.ks_max_d, ks.d);
  }
  scores.psi_mean = psi_sum / static_cast<double>(dims);

  // Class-mix chi-square of the window's predicted classes vs the priors.
  const std::size_t class_count = ref_.class_counts.size();
  std::vector<double> observed(class_count, 0.0);
  double conf_sum = 0.0;
  for (std::size_t r = 0; r < cfg_.window; ++r) {
    const auto c = static_cast<std::size_t>(classes_[r]);
    if (c < class_count) observed[c] += 1.0;
    conf_sum += confidences_[r];
  }
  scores.confidence_mean = conf_sum / static_cast<double>(cfg_.window);
  std::vector<double> expected(class_count);
  for (std::size_t c = 0; c < class_count; ++c) {
    expected[c] = static_cast<double>(ref_.class_counts[c]);
  }
  const stats::ChiSquareResult mix = stats::chi_square_gof(observed, expected);
  scores.class_chi2 = mix.chi2;
  scores.class_p = mix.p_value;

  // Severity of this evaluation in isolation. KS alphas are
  // Bonferroni-corrected for the `dims` tests actually run.
  const double dims_d = static_cast<double>(dims);
  const double ks_warn = cfg_.ks_alpha_warning / dims_d;
  const double ks_drift = cfg_.ks_alpha_drifted / dims_d;
  scores.severity = DriftState::Ok;
  if (scores.psi_mean >= cfg_.psi_warning || scores.ks_min_p <= ks_warn ||
      scores.class_p <= cfg_.chi2_alpha_warning) {
    scores.severity = DriftState::Warning;
  }
  if (scores.psi_mean >= cfg_.psi_drifted || scores.ks_min_p <= ks_drift ||
      scores.class_p <= cfg_.chi2_alpha_drifted) {
    scores.severity = DriftState::Drifted;
  }

  ++evaluations_;
  last_ = scores;

  // State machine: escalation requires `confirm` consecutive breaching
  // evaluations at (or above) the target severity; de-escalation requires
  // `clear` consecutive clean ones. Drifted is sticky for the lifetime of
  // the window epoch: only reset_window() leaves it, so an operator can
  // always see that drift happened even if the stream recovers.
  if (scores.severity == DriftState::Ok) {
    breach_streak_ = 0;
    drift_streak_ = 0;
    ++clean_streak_;
    if (state_ == DriftState::Warning && clean_streak_ >= cfg_.clear) {
      state_ = DriftState::Ok;
    }
  } else {
    clean_streak_ = 0;
    ++breach_streak_;
    drift_streak_ =
        scores.severity == DriftState::Drifted ? drift_streak_ + 1 : 0;
    if (state_ == DriftState::Ok && breach_streak_ >= cfg_.confirm) {
      state_ = DriftState::Warning;
      ++warnings_;
      if (first_warning_obs_ < 0) {
        first_warning_obs_ = static_cast<std::int64_t>(observations_);
      }
    }
    if (state_ != DriftState::Drifted && drift_streak_ >= cfg_.confirm) {
      state_ = DriftState::Drifted;
      ++drifts_;
      if (first_drifted_obs_ < 0) {
        first_drifted_obs_ = static_cast<std::int64_t>(observations_);
      }
    }
  }

  publish_metrics_locked(scores);
}

void DriftMonitor::publish_metrics_locked(const DriftScores& scores) const {
  if (!metrics_enabled()) return;
  MetricsRegistry& reg = metrics();
  const std::string prefix = util::format("quality.drift.%s.", cfg_.name.c_str());
  reg.gauge(prefix + "state").set(static_cast<double>(state_));
  reg.gauge(prefix + "psi_mean").set(scores.psi_mean);
  reg.gauge(prefix + "psi_max").set(scores.psi_max);
  reg.gauge(prefix + "ks_min_p").set(scores.ks_min_p);
  reg.gauge(prefix + "class_p").set(scores.class_p);
  reg.gauge(prefix + "confidence_mean").set(scores.confidence_mean);
  reg.counter(prefix + "evaluations").inc();
  if (scores.severity != DriftState::Ok) {
    reg.counter(prefix + "breaches").inc();
  }
}

DriftState DriftMonitor::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

DriftReport DriftMonitor::report() const {
  std::lock_guard<std::mutex> lock(mu_);
  DriftReport report;
  report.name = cfg_.name;
  report.state = state_;
  report.observations = observations_;
  report.evaluations = evaluations_;
  report.warnings = warnings_;
  report.drifts = drifts_;
  report.first_warning_obs = first_warning_obs_;
  report.first_drifted_obs = first_drifted_obs_;
  report.last = last_;
  return report;
}

void DriftMonitor::reset_window() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& row : rows_) row.clear();
  std::fill(classes_.begin(), classes_.end(), -1);
  std::fill(confidences_.begin(), confidences_.end(), 0.0);
  ring_pos_ = 0;
  ring_full_ = false;
  state_ = DriftState::Ok;
  breach_streak_ = 0;
  drift_streak_ = 0;
  clean_streak_ = 0;
  observations_ = 0;
  evaluations_ = 0;
  warnings_ = 0;
  drifts_ = 0;
  first_warning_obs_ = -1;
  first_drifted_obs_ = -1;
  last_ = DriftScores{};
}

util::Json DriftReport::to_json() const {
  auto doc = util::Json::object();
  doc.set("name", util::Json::string(name));
  doc.set("state", util::Json::string(std::string(drift_state_name(state))));
  doc.set("observations",
          util::Json::integer(static_cast<std::int64_t>(observations)));
  doc.set("evaluations",
          util::Json::integer(static_cast<std::int64_t>(evaluations)));
  doc.set("warnings", util::Json::integer(static_cast<std::int64_t>(warnings)));
  doc.set("drifts", util::Json::integer(static_cast<std::int64_t>(drifts)));
  doc.set("first_warning_obs", util::Json::integer(first_warning_obs));
  doc.set("first_drifted_obs", util::Json::integer(first_drifted_obs));
  auto scores = util::Json::object();
  scores.set("psi_mean", util::Json::number(last.psi_mean));
  scores.set("psi_max", util::Json::number(last.psi_max));
  scores.set("psi_argmax",
             util::Json::integer(static_cast<std::int64_t>(last.psi_argmax)));
  scores.set("ks_min_p", util::Json::number(last.ks_min_p));
  scores.set("ks_max_d", util::Json::number(last.ks_max_d));
  scores.set("ks_argmin",
             util::Json::integer(static_cast<std::int64_t>(last.ks_argmin)));
  scores.set("class_chi2", util::Json::number(last.class_chi2));
  scores.set("class_p", util::Json::number(last.class_p));
  scores.set("confidence_mean", util::Json::number(last.confidence_mean));
  scores.set("severity",
             util::Json::string(std::string(drift_state_name(last.severity))));
  doc.set("last", std::move(scores));
  return doc;
}

}  // namespace amperebleed::obs
