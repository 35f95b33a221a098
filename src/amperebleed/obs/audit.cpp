#include "amperebleed/obs/audit.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace amperebleed::obs {

std::string_view access_outcome_name(AccessOutcome o) {
  switch (o) {
    case AccessOutcome::Ok:
      return "ok";
    case AccessOutcome::Denied:
      return "denied";
    case AccessOutcome::Error:
      return "error";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// PrincipalScope

namespace {
thread_local std::string t_current_principal;
}  // namespace

PrincipalScope::PrincipalScope(std::string name)
    : previous_(std::move(t_current_principal)) {
  t_current_principal = std::move(name);
}

PrincipalScope::~PrincipalScope() {
  t_current_principal = std::move(previous_);
}

const std::string& PrincipalScope::current() { return t_current_principal; }

// ---------------------------------------------------------------------------
// AccessAuditLog

AccessAuditLog::AccessAuditLog(std::size_t max_events)
    : max_events_(max_events) {}

std::uint32_t AccessAuditLog::intern(
    std::vector<std::string>& names, std::map<std::string, std::uint32_t>& ids,
    std::string_view name) {
  const auto it = ids.find(std::string(name));
  if (it != ids.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names.size());
  names.emplace_back(name);
  ids.emplace(std::string(name), id);
  return id;
}

void AccessAuditLog::record(sim::TimeNs t, std::string_view path,
                            bool privileged, AccessOutcome outcome,
                            std::string_view principal) {
  std::string_view who = principal;
  if (who.empty()) {
    const std::string& scoped = PrincipalScope::current();
    who = scoped.empty() ? (privileged ? std::string_view("root")
                                       : std::string_view("user"))
                         : std::string_view(scoped);
  }

  std::lock_guard<std::mutex> lock(mu_);
  Event e;
  e.t = t;
  e.path_id = intern(path_names_, path_ids_, path);
  e.principal_id = intern(principal_names_, principal_ids_, who);
  e.outcome = outcome;
  e.privileged = privileged;

  ++total_;
  if (outcome == AccessOutcome::Denied) ++denials_;
  auto& cell = by_key_[{e.principal_id, e.path_id}];
  cell[static_cast<std::size_t>(outcome)] += 1;

  if (events_.size() >= max_events_) {
    ++dropped_;
    return;
  }
  events_.push_back(e);
}

std::uint64_t AccessAuditLog::total_accesses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

std::uint64_t AccessAuditLog::total_denials() const {
  std::lock_guard<std::mutex> lock(mu_);
  return denials_;
}

std::uint64_t AccessAuditLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::vector<AccessAuditLog::KeyStats> AccessAuditLog::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<KeyStats> out;
  out.reserve(by_key_.size());
  for (const auto& [key, counts] : by_key_) {
    KeyStats s;
    s.principal = principal_names_[key.first];
    s.path = path_names_[key.second];
    s.ok = counts[0];
    s.denied = counts[1];
    s.error = counts[2];
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(), [](const KeyStats& a, const KeyStats& b) {
    return a.principal != b.principal ? a.principal < b.principal
                                      : a.path < b.path;
  });
  return out;
}

std::vector<AccessAuditLog::Event> AccessAuditLog::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::string AccessAuditLog::path_name(std::uint32_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return id < path_names_.size() ? path_names_[id] : std::string();
}

std::string AccessAuditLog::principal_name(std::uint32_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return id < principal_names_.size() ? principal_names_[id] : std::string();
}

util::Json AccessAuditLog::to_json() const {
  const auto all = stats();  // takes the lock itself
  std::uint64_t total = 0;
  std::uint64_t denials = 0;

  auto by_key = util::Json::array();
  for (const auto& s : all) {
    total += s.total();
    denials += s.denied;
    auto j = util::Json::object();
    j.set("principal", util::Json::string(s.principal));
    j.set("path", util::Json::string(s.path));
    j.set("ok", util::Json::integer(static_cast<std::int64_t>(s.ok)));
    j.set("denied", util::Json::integer(static_cast<std::int64_t>(s.denied)));
    j.set("error", util::Json::integer(static_cast<std::int64_t>(s.error)));
    by_key.push_back(std::move(j));
  }

  auto totals = util::Json::object();
  totals.set("accesses", util::Json::integer(static_cast<std::int64_t>(total)));
  totals.set("denials", util::Json::integer(static_cast<std::int64_t>(denials)));
  totals.set("dropped_events",
             util::Json::integer(static_cast<std::int64_t>(dropped())));

  auto root = util::Json::object();
  root.set("totals", std::move(totals));
  root.set("by_principal_path", std::move(by_key));
  root.set("recorded_events",
           util::Json::integer(static_cast<std::int64_t>(events().size())));
  return root;
}

void AccessAuditLog::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  path_names_.clear();
  path_ids_.clear();
  principal_names_.clear();
  principal_ids_.clear();
  events_.clear();
  by_key_.clear();
  dropped_ = 0;
  total_ = 0;
  denials_ = 0;
}

// ---------------------------------------------------------------------------
// Rate-anomaly detector

const PrincipalReport* DetectionReport::find(std::string_view name) const {
  for (const auto& p : principals) {
    if (p.principal == name) return &p;
  }
  return nullptr;
}

namespace {

struct KeySeries {
  // window index -> access count for one (principal, path).
  std::map<std::int64_t, std::uint64_t> windows;
};

struct PrincipalSeries {
  std::map<std::uint32_t, KeySeries> by_path;
  std::set<std::int64_t> active_windows;
  std::set<std::int64_t> flagged_windows;  // windows inside qualifying runs
  std::uint64_t accesses = 0;
  std::uint64_t denials = 0;
  std::int64_t first_ns = -1;
  std::int64_t last_ns = -1;
};

/// Shared window/run analysis used by both the report and the evaluation.
std::map<std::uint32_t, PrincipalSeries> build_series(
    const std::vector<AccessAuditLog::Event>& events,
    const RateDetectorConfig& config) {
  if (config.window.ns <= 0) {
    throw std::invalid_argument("RateDetectorConfig: window must be > 0");
  }
  std::map<std::uint32_t, PrincipalSeries> series;
  for (const auto& e : events) {
    if (e.t.ns < 0) continue;  // untimestamped — cannot be windowed
    auto& p = series[e.principal_id];
    const std::int64_t w = e.t.ns / config.window.ns;
    p.by_path[e.path_id].windows[w] += 1;
    p.active_windows.insert(w);
    ++p.accesses;
    if (e.outcome == AccessOutcome::Denied) ++p.denials;
    if (p.first_ns < 0 || e.t.ns < p.first_ns) p.first_ns = e.t.ns;
    p.last_ns = std::max(p.last_ns, e.t.ns);
  }

  const double window_s = config.window.seconds();
  const auto min_hits = static_cast<std::uint64_t>(
      config.threshold_reads_per_s * window_s + 0.5);
  for (auto& [pid, p] : series) {
    (void)pid;
    for (auto& [path_id, ks] : p.by_path) {
      (void)path_id;
      // Scan consecutive hot runs.
      std::int64_t run_start = 0;
      std::size_t run_len = 0;
      std::int64_t prev_w = std::numeric_limits<std::int64_t>::min();
      const auto commit = [&]() {
        if (run_len >= config.consecutive_windows) {
          for (std::int64_t w = run_start;
               w < run_start + static_cast<std::int64_t>(run_len); ++w) {
            p.flagged_windows.insert(w);
          }
        }
      };
      for (const auto& [w, count] : ks.windows) {
        const bool hot = count >= std::max<std::uint64_t>(min_hits, 1);
        if (hot && w == prev_w + 1 && run_len > 0) {
          ++run_len;
        } else if (hot) {
          commit();
          run_start = w;
          run_len = 1;
        } else {
          commit();
          run_len = 0;
        }
        prev_w = w;
      }
      commit();
    }
  }
  return series;
}

}  // namespace

DetectionReport detect_rate_anomalies(const AccessAuditLog& log,
                                      const RateDetectorConfig& config) {
  const auto events = log.events();
  const auto series = build_series(events, config);
  const double window_s = config.window.seconds();

  DetectionReport report;
  report.config = config;
  for (const auto& [pid, p] : series) {
    PrincipalReport r;
    r.principal = log.principal_name(pid);
    r.accesses = p.accesses;
    r.denials = p.denials;
    r.active_windows = p.active_windows.size();

    double peak = 0.0;
    std::size_t hot = 0;
    const auto min_hits = static_cast<std::uint64_t>(
        config.threshold_reads_per_s * window_s + 0.5);
    for (const auto& [path_id, ks] : p.by_path) {
      (void)path_id;
      for (const auto& [w, count] : ks.windows) {
        (void)w;
        peak = std::max(peak, static_cast<double>(count) / window_s);
        if (count >= std::max<std::uint64_t>(min_hits, 1)) ++hot;
      }
    }
    r.peak_path_rate_hz = peak;
    r.hot_windows = hot;
    if (p.last_ns >= p.first_ns && p.first_ns >= 0) {
      const double extent_s =
          static_cast<double>(p.last_ns - p.first_ns) * 1e-9 + window_s;
      r.mean_rate_hz = static_cast<double>(p.accesses) / extent_s;
    }
    r.flagged = !p.flagged_windows.empty();
    if (r.flagged) {
      const std::int64_t first_run_start = *p.flagged_windows.begin();
      r.detection_time = sim::TimeNs{
          (first_run_start +
           static_cast<std::int64_t>(config.consecutive_windows)) *
          config.window.ns};
    }
    report.principals.push_back(std::move(r));
  }
  std::sort(report.principals.begin(), report.principals.end(),
            [](const PrincipalReport& a, const PrincipalReport& b) {
              return a.principal < b.principal;
            });
  return report;
}

DetectionEval evaluate_detector(
    const AccessAuditLog& log, const RateDetectorConfig& config,
    const std::set<std::string>& attacker_principals) {
  const auto events = log.events();
  const auto series = build_series(events, config);

  DetectionEval eval;
  for (const auto& [pid, p] : series) {
    const bool is_attacker =
        attacker_principals.count(log.principal_name(pid)) != 0;
    for (std::int64_t w : p.active_windows) {
      const bool predicted = p.flagged_windows.count(w) != 0;
      if (is_attacker && predicted) ++eval.tp;
      if (is_attacker && !predicted) ++eval.fn;
      if (!is_attacker && predicted) ++eval.fp;
      if (!is_attacker && !predicted) ++eval.tn;
    }
  }
  return eval;
}

}  // namespace amperebleed::obs
