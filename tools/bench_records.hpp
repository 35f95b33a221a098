#pragma once
// Perf-trajectory comparison of bench run records: loads BENCH_*.json files
// (or whole trajectory directories produced by bench/run_all.sh), matches
// records by bench name, and computes per-metric deltas and verdicts. This is what turns the accumulated run records into a
// regression *gate*: tools/bench_compare.cpp wraps it into a CLI that exits
// non-zero on a regression or a missing gated metric, and CI runs it
// against the committed bench/baseline/ snapshot. It is the CLI's internals,
// so it lives beside the CLI rather than in libamperebleed.
//
// Verdict policy per metric:
//  * direction is inferred from the key (latency/time/error-ish keys are
//    lower-is-better, everything else higher-is-better),
//  * a |relative delta| beyond the threshold is a regression in the bad
//    direction and an improvement in the good one,
//  * a gated metric the baseline has and the current record lacks fails
//    the gate, as does a baseline bench with gated metrics that the current
//    snapshot lacks: a bench that stops writing a gated number must not
//    pass.
//
// Records embed provenance (env.hostname / env.build_type / env.git_sha);
// comparing across hosts or build types is refused unless forced, because
// such deltas measure the machine, not the code.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "amperebleed/util/json.hpp"

namespace amperebleed::tools {

struct BenchRecord {
  std::string bench;
  std::int64_t unix_time = 0;
  std::map<std::string, double> numbers;  // includes "wall_seconds"
  std::map<std::string, std::string> text;
  std::map<std::string, std::string> env;  // git_sha / hostname / build_type
  std::string source_path;  // where it was loaded from (diagnostics)
};

/// Parse one run-record document. Throws std::runtime_error on documents
/// without a "bench" name.
BenchRecord parse_bench_record(const util::Json& doc,
                               std::string source_path = "");
/// Load + parse one BENCH_*.json file.
BenchRecord load_bench_record(const std::string& path);
/// All BENCH_*.json in a directory, sorted by bench name. Throws when the
/// directory cannot be read or holds no records.
std::vector<BenchRecord> load_trajectory_dir(const std::string& dir);
/// `path` may be a single record file or a trajectory directory.
std::vector<BenchRecord> load_records(const std::string& path);

enum class MetricDirection {
  HigherIsBetter,
  LowerIsBetter,
};

/// Heuristic direction from the metric key: keys smelling of time, latency,
/// errors or drops are lower-is-better; everything else higher-is-better.
MetricDirection metric_direction(std::string_view key);

enum class Verdict {
  Unchanged,    // within threshold
  Improvement,  // beyond threshold in the good direction
  Regression,   // beyond threshold in the bad direction
};

const char* verdict_name(Verdict verdict);

struct MetricComparison {
  std::string bench;
  std::string key;
  double baseline = 0.0;
  double current = 0.0;
  double abs_delta = 0.0;  // current - baseline
  double rel_delta = 0.0;  // abs_delta / |baseline| (0 when baseline == 0)
  MetricDirection direction = MetricDirection::HigherIsBetter;
  Verdict verdict = Verdict::Unchanged;
  /// Informational rows (stage_/slo_ pipeline attribution) never gate:
  /// excluded from regressions()/improvements() regardless of verdict.
  bool informational = false;
};

struct CompareOptions {
  /// Relative-delta threshold for a verdict other than Unchanged.
  double threshold = 0.10;
  /// Proceed despite hostname/build_type mismatches.
  bool force = false;
  /// Only compare metrics whose key contains one of these substrings
  /// (empty: all).
  std::vector<std::string> include;
  /// Skip metrics whose key contains one of these substrings.
  std::vector<std::string> exclude;
  /// Surface per-stage pipeline attribution and SLO keys (stage_* / slo_*)
  /// as informational rows. Off by default — stage latencies are wall-clock
  /// observations, not gated perf metrics; even when shown they never count
  /// toward regressions().
  bool show_stages = false;
  /// Surface drift/data-quality keys (drift_* / quality_*) as informational
  /// rows, same policy as show_stages: quality telemetry describes the
  /// monitored stream, not the build under test, so it never gates.
  bool show_quality = false;
};

struct CompareReport {
  std::vector<MetricComparison> comparisons;
  /// Gated metrics ("bench.key") and whole benches ("bench") of the
  /// baseline that the current snapshot lacks. Informational keys and keys
  /// the filters drop never land here. Each entry fails the gate.
  std::vector<std::string> missing;
  std::vector<std::string> warnings;  // new benches, env mismatches, ...
  /// Records disagree on hostname or build type — deltas measure the
  /// machine, not the code. The CLI refuses without --force.
  bool env_mismatch = false;

  [[nodiscard]] std::size_t regressions() const;
  [[nodiscard]] std::size_t improvements() const;
  /// No regression and nothing missing.
  [[nodiscard]] bool passed() const {
    return regressions() == 0 && missing.empty();
  }

  [[nodiscard]] util::Json to_json() const;
  /// Human-readable table (regressions and improvements first).
  [[nodiscard]] std::string to_table(bool verbose = false) const;
};

/// Parse a --threshold value: a finite, non-negative number with nothing
/// after it. Throws std::invalid_argument otherwise ("nan", "inf", "-0.1",
/// "0.1abc"), since a NaN threshold would read every metric as Unchanged
/// and silently open the gate.
double parse_threshold(const std::string& text);

/// Compare two snapshots (baseline vs current), matching records by bench
/// name. A bench only the current snapshot has becomes a warning — a new
/// bench must not fail the gate. A baseline bench the current snapshot
/// lacks goes to `missing` when any of its keys is gated, else it is a
/// warning.
CompareReport compare_records(const std::vector<BenchRecord>& baseline,
                              const std::vector<BenchRecord>& current,
                              const CompareOptions& options = {});

}  // namespace amperebleed::tools
