#pragma once
// Machine-readable bench run records: every bench binary writes a
// BENCH_<name>.json capturing wall time, throughput and its headline
// accuracy numbers, so the repo accumulates a perf trajectory across
// commits (bench/run_all.sh collects them into bench/trajectory/ and
// tools/bench_compare gates on the deltas).
//
// Every record also carries provenance ("env": git sha, hostname, build
// type) so bench_compare can refuse to compare cross-machine or
// Debug-vs-Release records.
//
// Thread-safe: the HTTP exporter's /runrecord endpoint serializes the
// record from its serve thread while the bench keeps mutating it.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "amperebleed/util/json.hpp"

namespace amperebleed::obs {

/// Best-effort build/host provenance for run records. git_sha resolves from
/// $AMPEREBLEED_GIT_SHA (exported by bench/run_all.sh), falling back to the
/// compile-time AMPEREBLEED_GIT_SHA definition, else "unknown".
struct RunEnvironment {
  std::string git_sha;
  std::string hostname;
  std::string build_type;  // CMAKE_BUILD_TYPE baked in at compile time

  /// Capture the current process environment (cached after the first call).
  static const RunEnvironment& current();
};

class RunRecord {
 public:
  explicit RunRecord(std::string bench_name);

  /// Record a headline number ("top1_accuracy", "samples_per_sec", ...).
  void set_number(const std::string& key, double value);
  void set_integer(const std::string& key, std::int64_t value);
  void set_text(const std::string& key, std::string value);

  [[nodiscard]] const std::string& name() const { return name_; }
  /// Wall seconds since construction.
  [[nodiscard]] double elapsed_seconds() const;

  /// {"bench": ..., "wall_seconds": ..., "unix_time": ...,
  ///  "env": {"git_sha": ..., "hostname": ..., "build_type": ...},
  ///  "numbers": {...}, "text": {...}}
  [[nodiscard]] util::Json to_json() const;

  /// Default output filename: BENCH_<name>.json.
  [[nodiscard]] std::string default_path() const;
  /// to_json() through util::atomic_write_file; throws std::runtime_error
  /// on any IO failure.
  void write(const std::string& path) const;

 private:
  std::string name_;
  std::chrono::steady_clock::time_point start_;
  mutable std::mutex mu_;
  std::vector<std::pair<std::string, util::Json>> numbers_;
  std::vector<std::pair<std::string, std::string>> text_;
};

}  // namespace amperebleed::obs
