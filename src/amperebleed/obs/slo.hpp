#pragma once
// SLO engine over the metrics registry's histograms, SRE-style multi-window
// burn rates computed in VIRTUAL time.
//
// An SloObjective declares a latency SLI over one histogram: an observation
// is "good" when it lands in a bucket whose upper bound is <= threshold, and
// the objective asks that a `target` fraction of observations be good. The
// error budget is 1 - target, and the burn rate over a window is
//
//     burn = (bad fraction in window) / (1 - target)
//
// so burn == 1.0 consumes the budget exactly at the sustainable pace.
// Following the multi-window alerting recipe, each evaluation computes the
// burn over a fast window (default 300 s) and a slow window (default
// 3600 s); the objective is breached when BOTH exceed their alert rates
// (defaults 14.4 / 6.0 — the classic page thresholds).
//
// Time is the SloRegistry's virtual clock, advanced by the Sampler with the
// simulated nanoseconds each collection consumed (including retry-backoff
// waits injected by faults::FaultInjector). Burn windows therefore measure
// the *simulated* service timeline and are bit-reproducible: the same seed
// and fault plan always produce the same compliance report, regardless of
// host speed or pool size. Windows clamp to the available history (an
// implicit (t=0, good=0, total=0) origin anchors the first evaluation).

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "amperebleed/obs/metrics.hpp"
#include "amperebleed/util/json.hpp"

namespace amperebleed::obs {

struct SloObjective {
  std::string name;       // e.g. "acquire_virtual_latency"
  std::string histogram;  // registry histogram the SLI reads
  /// Observations <= threshold (bucket upper bound) count as good.
  double threshold = 0.0;
  /// Target good fraction in [0, 1). The error budget is 1 - target.
  double target = 0.99;
  double fast_window_s = 300.0;   // 5 min equivalent, virtual
  double slow_window_s = 3600.0;  // 1 h equivalent, virtual
  double fast_burn_alert = 14.4;
  double slow_burn_alert = 6.0;
};

struct SloStatus {
  std::string name;
  double now_s = 0.0;        // evaluation instant (virtual)
  std::uint64_t good = 0;    // lifetime good observations
  std::uint64_t total = 0;   // lifetime observations
  double compliance = 1.0;   // lifetime good/total (1.0 while empty)
  double fast_burn = 0.0;
  double slow_burn = 0.0;
  bool fast_alert = false;
  bool slow_alert = false;
  /// Both windows above their alert rates — the page condition.
  bool breached = false;

  [[nodiscard]] util::Json to_json() const;
};

/// One objective plus its cumulative (t, good, total) history. evaluate()
/// snapshots the histogram, appends to the history, prunes entries older
/// than the slow window and computes both burn rates.
class Slo {
 public:
  explicit Slo(SloObjective objective);

  [[nodiscard]] const SloObjective& objective() const { return objective_; }

  SloStatus evaluate(const MetricsRegistry& registry, double now_s);

 private:
  struct Snapshot {
    double t = 0.0;
    std::uint64_t good = 0;
    std::uint64_t total = 0;
  };
  [[nodiscard]] double windowed_burn(const Snapshot& now,
                                     double window_s) const;

  SloObjective objective_;
  std::deque<Snapshot> history_;  // ascending t; front anchors the windows
};

/// Named objectives plus the virtual clock they are evaluated against.
/// Thread-safe; Slo references stay valid until reset().
class SloRegistry {
 public:
  /// Register (or replace) an objective by name.
  void add(SloObjective objective);
  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::size_t size() const;

  /// Advance the virtual clock (seconds of simulated time consumed).
  void advance(double seconds);
  [[nodiscard]] double now_s() const;

  /// Evaluate every objective at the current virtual instant.
  std::vector<SloStatus> evaluate_all(const MetricsRegistry& registry);
  /// {"now_s":..., "objectives":[...statuses...]} — evaluates first.
  [[nodiscard]] util::Json to_json(const MetricsRegistry& registry);

  /// Drop every objective and zero the clock.
  void reset();

 private:
  mutable std::mutex mu_;
  std::vector<Slo> slos_;
  double now_s_ = 0.0;
};

/// Process-wide registry; the Sampler advances its clock, benches register
/// default objectives, /slo serves evaluate_all().
SloRegistry& slos();

/// Count good (bucket bound <= threshold) and total observations of a
/// histogram. Exposed for tests.
void histogram_good_total(const Histogram& histogram, double threshold,
                          std::uint64_t& good, std::uint64_t& total);

}  // namespace amperebleed::obs
