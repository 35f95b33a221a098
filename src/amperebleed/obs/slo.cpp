#include "amperebleed/obs/slo.hpp"

#include <algorithm>

namespace amperebleed::obs {

util::Json SloStatus::to_json() const {
  auto j = util::Json::object();
  j.set("name", util::Json::string(name));
  j.set("now_s", util::Json::number(now_s));
  j.set("good", util::Json::integer(static_cast<std::int64_t>(good)));
  j.set("total", util::Json::integer(static_cast<std::int64_t>(total)));
  j.set("compliance", util::Json::number(compliance));
  j.set("fast_burn", util::Json::number(fast_burn));
  j.set("slow_burn", util::Json::number(slow_burn));
  j.set("fast_alert", util::Json::boolean(fast_alert));
  j.set("slow_alert", util::Json::boolean(slow_alert));
  j.set("breached", util::Json::boolean(breached));
  return j;
}

void histogram_good_total(const Histogram& histogram, double threshold,
                          std::uint64_t& good, std::uint64_t& total) {
  const auto counts = histogram.bucket_counts();
  const auto& bounds = histogram.bucket_bounds();
  good = 0;
  // Bucket-resolution semantics: a bucket counts as good only when its whole
  // range is under the threshold (upper bound <= threshold). The +inf
  // overflow bucket is never good.
  for (std::size_t i = 0; i < bounds.size() && i < counts.size(); ++i) {
    if (bounds[i] <= threshold) good += counts[i];
  }
  total = histogram.count();
}

// ---------------------------------------------------------------------------
// Slo

Slo::Slo(SloObjective objective) : objective_(std::move(objective)) {
  // Origin anchor: the first evaluation's windows reach back to t=0.
  history_.push_back(Snapshot{});
}

double Slo::windowed_burn(const Snapshot& now, double window_s) const {
  // Oldest snapshot still inside the window (the window clamps to history:
  // with less history than the window, the whole history is the window).
  const Snapshot* anchor = &history_.front();
  for (const Snapshot& s : history_) {
    if (s.t >= now.t - window_s) break;
    anchor = &s;
  }
  const std::uint64_t total = now.total - anchor->total;
  if (total == 0) return 0.0;
  const std::uint64_t good = now.good - anchor->good;
  const double bad_fraction =
      static_cast<double>(total - good) / static_cast<double>(total);
  const double budget = 1.0 - objective_.target;
  return budget <= 0.0 ? (bad_fraction > 0.0 ? 1e308 : 0.0)
                       : bad_fraction / budget;
}

SloStatus Slo::evaluate(const MetricsRegistry& registry, double now_s) {
  Snapshot now;
  now.t = now_s;
  if (const Histogram* h = registry.find_histogram(objective_.histogram)) {
    histogram_good_total(*h, objective_.threshold, now.good, now.total);
  }

  SloStatus status;
  status.name = objective_.name;
  status.now_s = now_s;
  status.good = now.good;
  status.total = now.total;
  status.compliance =
      now.total == 0 ? 1.0
                     : static_cast<double>(now.good) /
                           static_cast<double>(now.total);
  status.fast_burn = windowed_burn(now, objective_.fast_window_s);
  status.slow_burn = windowed_burn(now, objective_.slow_window_s);
  status.fast_alert = status.fast_burn > objective_.fast_burn_alert;
  status.slow_alert = status.slow_burn > objective_.slow_burn_alert;
  status.breached = status.fast_alert && status.slow_alert;

  history_.push_back(now);
  // Prune history the slow window can no longer reach, keeping one anchor
  // older than the window edge.
  while (history_.size() > 2 &&
         history_[1].t < now.t - objective_.slow_window_s) {
    history_.pop_front();
  }
  return status;
}

// ---------------------------------------------------------------------------
// SloRegistry

void SloRegistry::add(SloObjective objective) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Slo& slo : slos_) {
    if (slo.objective().name == objective.name) {
      slo = Slo(std::move(objective));
      return;
    }
  }
  slos_.emplace_back(std::move(objective));
}

bool SloRegistry::has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::any_of(slos_.begin(), slos_.end(), [&](const Slo& slo) {
    return slo.objective().name == name;
  });
}

std::size_t SloRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slos_.size();
}

void SloRegistry::advance(double seconds) {
  if (seconds <= 0.0) return;
  std::lock_guard<std::mutex> lock(mu_);
  now_s_ += seconds;
}

double SloRegistry::now_s() const {
  std::lock_guard<std::mutex> lock(mu_);
  return now_s_;
}

std::vector<SloStatus> SloRegistry::evaluate_all(
    const MetricsRegistry& registry) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SloStatus> statuses;
  statuses.reserve(slos_.size());
  for (Slo& slo : slos_) {
    statuses.push_back(slo.evaluate(registry, now_s_));
  }
  return statuses;
}

util::Json SloRegistry::to_json(const MetricsRegistry& registry) {
  const auto statuses = evaluate_all(registry);
  auto root = util::Json::object();
  double now = 0.0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    now = now_s_;
  }
  root.set("now_s", util::Json::number(now));
  auto list = util::Json::array();
  for (const auto& status : statuses) list.push_back(status.to_json());
  root.set("objectives", std::move(list));
  return root;
}

void SloRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  slos_.clear();
  now_s_ = 0.0;
}

SloRegistry& slos() {
  static SloRegistry* registry = new SloRegistry();
  return *registry;
}

}  // namespace amperebleed::obs
