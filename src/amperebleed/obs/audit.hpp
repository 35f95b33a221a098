#pragma once
// hwmon access-audit layer. Every VirtualFs attribute access is recorded as
// (virtual timestamp, path, principal, outcome) and aggregated per
// (principal, path). On top of the log sits a sliding-window rate-anomaly
// detector: the defender-side observation (noted by SideLine and Hot Pixels)
// that a side-channel attacker's *access pattern* to the sensor interface is
// itself a signal — an unprivileged process polling one current attribute at
// 28.6 Hz (35 ms) or 1 kHz does not look like a health daemon reading four
// rails once a second. bench/ablation_detection quantifies the TPR/FPR.

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "amperebleed/sim/time.hpp"
#include "amperebleed/util/json.hpp"

namespace amperebleed::obs {

/// Coarse access outcome (the fine-grained VfsStatus stays in the hwmon
/// layer's per-status counters; the audit trail only needs the defender's
/// view: it worked, it was denied, or it failed some other way).
enum class AccessOutcome { Ok, Denied, Error };

std::string_view access_outcome_name(AccessOutcome o);

/// Scoped "current principal" identity for audit records, so a sampler (or a
/// scripted benign daemon) can label its accesses. Thread-local; nested
/// scopes restore the previous identity. When no scope is active, records
/// fall back to "user" / "root" from the privileged bit.
class PrincipalScope {
 public:
  explicit PrincipalScope(std::string name);
  PrincipalScope(const PrincipalScope&) = delete;
  PrincipalScope& operator=(const PrincipalScope&) = delete;
  ~PrincipalScope();

  /// The active principal name, or empty if no scope is active.
  [[nodiscard]] static const std::string& current();

 private:
  std::string previous_;
};

/// Append-only, bounded, thread-safe access log with per-key aggregation.
class AccessAuditLog {
 public:
  explicit AccessAuditLog(std::size_t max_events = 1 << 22);

  /// Record one access at virtual time `t` (the reading platform's clock;
  /// t < 0 marks an untimestamped access). `principal` may be empty, in
  /// which case the active PrincipalScope (or "user"/"root") is used.
  void record(sim::TimeNs t, std::string_view path, bool privileged,
              AccessOutcome outcome, std::string_view principal = {});

  struct Event {
    sim::TimeNs t{-1};
    std::uint32_t path_id = 0;
    std::uint32_t principal_id = 0;
    AccessOutcome outcome = AccessOutcome::Ok;
    bool privileged = false;
  };

  struct KeyStats {
    std::string principal;
    std::string path;
    std::uint64_t ok = 0;
    std::uint64_t denied = 0;
    std::uint64_t error = 0;
    [[nodiscard]] std::uint64_t total() const { return ok + denied + error; }
  };

  [[nodiscard]] std::uint64_t total_accesses() const;
  [[nodiscard]] std::uint64_t total_denials() const;
  [[nodiscard]] std::uint64_t dropped() const;

  /// Aggregated counters, sorted by principal then path.
  [[nodiscard]] std::vector<KeyStats> stats() const;
  /// Copy of the raw event stream (bounded by max_events).
  [[nodiscard]] std::vector<Event> events() const;
  [[nodiscard]] std::string path_name(std::uint32_t id) const;
  [[nodiscard]] std::string principal_name(std::uint32_t id) const;

  /// {"totals": {...}, "by_principal": [...], "events": n}
  [[nodiscard]] util::Json to_json() const;

  void clear();

 private:
  [[nodiscard]] std::uint32_t intern(std::vector<std::string>& names,
                                     std::map<std::string, std::uint32_t>& ids,
                                     std::string_view name);

  std::size_t max_events_;
  mutable std::mutex mu_;
  std::vector<std::string> path_names_;
  std::map<std::string, std::uint32_t> path_ids_;
  std::vector<std::string> principal_names_;
  std::map<std::string, std::uint32_t> principal_ids_;
  std::vector<Event> events_;
  std::uint64_t dropped_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t denials_ = 0;
  // (principal_id, path_id) -> [ok, denied, error]
  std::map<std::pair<std::uint32_t, std::uint32_t>,
           std::array<std::uint64_t, 3>>
      by_key_;
};

// ---------------------------------------------------------------------------
// Rate-anomaly detection over the audit trail.

struct RateDetectorConfig {
  /// Windowing of the virtual timeline.
  sim::TimeNs window = sim::seconds(1);
  /// A (principal, path) window is "hot" when its access rate reaches this.
  double threshold_reads_per_s = 10.0;
  /// Principal is flagged after this many consecutive hot windows on any
  /// single path — one burst does not trip the alarm.
  std::size_t consecutive_windows = 3;
};

struct PrincipalReport {
  std::string principal;
  std::uint64_t accesses = 0;
  std::uint64_t denials = 0;
  /// Peak single-path windowed rate (accesses/s) — the detection signal.
  double peak_path_rate_hz = 0.0;
  /// Mean rate over the principal's active extent.
  double mean_rate_hz = 0.0;
  std::size_t hot_windows = 0;
  std::size_t active_windows = 0;
  bool flagged = false;
  /// End of the window that completed the consecutive run (-1 if never).
  sim::TimeNs detection_time{-1};
};

struct DetectionReport {
  RateDetectorConfig config;
  std::vector<PrincipalReport> principals;  // sorted by name

  [[nodiscard]] const PrincipalReport* find(std::string_view name) const;
};

/// Run the sliding-window detector over the log's event stream. Events
/// without timestamps (t < 0) are ignored.
DetectionReport detect_rate_anomalies(const AccessAuditLog& log,
                                      const RateDetectorConfig& config);

/// Window-level confusion matrix: every (principal, active window) is one
/// sample; label = principal in `attacker_principals`; prediction = window
/// belongs to a flagged run of >= consecutive_windows hot windows.
struct DetectionEval {
  std::uint64_t tp = 0, fp = 0, tn = 0, fn = 0;
  [[nodiscard]] double tpr() const {
    return tp + fn == 0 ? 0.0
                        : static_cast<double>(tp) / static_cast<double>(tp + fn);
  }
  [[nodiscard]] double fpr() const {
    return fp + tn == 0 ? 0.0
                        : static_cast<double>(fp) / static_cast<double>(fp + tn);
  }
};

DetectionEval evaluate_detector(const AccessAuditLog& log,
                                const RateDetectorConfig& config,
                                const std::set<std::string>& attacker_principals);

}  // namespace amperebleed::obs
