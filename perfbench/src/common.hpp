#pragma once
// Shared plumbing of the end-to-end benchmark: run options, timing and
// percentile helpers, the result line, scratch directories and trace
// acquisition. The closed-loop client driver of the serve workloads is in
// serve_loop.hpp.
//
// Every layer is timed from the benchmark's own code, around calls into
// that layer's public functions; nothing inside the library is
// instrumented. Where a layer runs inside a library call the benchmark
// cannot split (ClassificationService::tick, the Table III pipeline), the
// traced run replays the layer's public call on the same inputs right
// after the real one and times the replay. Replay time is excluded from
// the timed wall.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "amperebleed/core/trace.hpp"
#include "amperebleed/serve/service.hpp"

namespace perfbench {

namespace ab = amperebleed;

/// Seed of the fixture the serve and recover workloads enroll (acquired
/// traces, and so the trained forests). It is fixed so that every run times
/// the same forests; --seed draws what the workload varies.
inline constexpr std::uint64_t kFixtureSeed = 0x5e21;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Rounds per measured phase instead of a time budget (0 = time-bound).
  /// Makes every count a pure function of (seed, rounds): the tests compare
  /// counts across pool sizes with it.
  std::uint64_t rounds = 0;
  /// Scratch directories for durable workloads live under this path.
  std::string work_dir = ".bench_build/tmp";
};

using Clock = std::chrono::steady_clock;

inline double elapsed_s(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

inline double elapsed_us(Clock::time_point since) {
  return std::chrono::duration<double, std::micro>(Clock::now() - since)
      .count();
}

inline double elapsed_ms(Clock::time_point since) {
  return elapsed_us(since) / 1000.0;
}

/// Bounds one measured phase: `seconds` of wall time, or exactly
/// Options::rounds iterations when a round budget is set.
class Phase {
 public:
  Phase(const Options& options, double seconds)
      : rounds_(options.rounds),
        deadline_(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(seconds))) {}
  /// True while the phase should run another iteration.
  bool next() {
    return rounds_ != 0 ? done_++ < rounds_ : Clock::now() < deadline_;
  }

 private:
  std::uint64_t rounds_;
  std::uint64_t done_ = 0;
  Clock::time_point deadline_;
};

/// Nearest-rank percentile (p in [0, 100]) of `samples`; 0 when empty.
double percentile(std::vector<double> samples, double p);

/// The highest percentile of {99, 90, 50} that leaves at least ten samples
/// above it — the tail a run of this size can state without guessing. With
/// fewer than twenty samples only the median qualifies.
double tail_percentile_rank(std::size_t sample_count);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The benchmark's result. `counts` are deterministic tallies (identical at
/// any pool size for a fixed seed and round budget); they go to stderr and
/// to the tests, not to the result line.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::map<std::string, std::uint64_t> counts;
  std::vector<std::string> errors;

  void add(std::string name, double value, std::string unit);
  /// Record a failed check: the run is incorrect and exits nonzero.
  void fail(const std::string& why);
  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  [[nodiscard]] std::string json() const;
};

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// A fresh directory under `base`, removed with everything in it on
/// destruction.
class ScratchDir {
 public:
  ScratchDir(const std::string& base, const std::string& prefix);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Twelve zoo models from different families and sizes: the serve
/// workloads' classes. Neighbours within one family (MobileNet-V1 vs -V1-0.5)
/// are left out so that every probe verdict is checkable against its true
/// model.
const std::vector<std::string>& serve_models();

/// traces[m][i]: `per_model` FPGA-current traces of each model running on
/// the DPU, acquired in parallel on the pool; a pure function of (models,
/// per_model, samples, seed).
std::vector<std::vector<ab::core::Trace>> acquire_pool(
    const std::vector<std::string>& models, std::size_t per_model,
    std::size_t samples, std::uint64_t seed);

/// Every serving tenant's verdict on each probe, every ranking probability
/// at %.17g — byte-compared across a crash and recovery.
std::string verdict_probe(const ab::serve::ClassificationService& service,
                          const std::vector<ab::core::Trace>& probes);

/// Median of `setups` repetitions of `fn` (each builds the workload's state
/// from scratch; the last one's state is kept by the caller).
template <typename Fn>
double median_setup_s(int setups, Fn&& fn) {
  std::vector<double> samples;
  for (int i = 0; i < setups; ++i) {
    const auto t0 = Clock::now();
    fn();
    samples.push_back(elapsed_s(t0));
  }
  return percentile(samples, 50.0);
}

/// Rate and latency of a phase's primary operations, aggregated per window
/// as they complete. A window closes once it spans at least 0.1 s and 200
/// operations; only its rate, median and tail are kept, so memory stays
/// flat however many operations a run completes. The phase reports the
/// medians over its windows, so a disturbed moment on a shared host does
/// not move the run's figures. With `windowed` false the whole phase is one
/// window.
class OpStats {
 public:
  explicit OpStats(bool windowed = true) : windowed_(windowed) {}

  /// One operation that completed `done_s` into the phase's timed clock
  /// (non-decreasing) after `us` microseconds.
  void add(double done_s, double us);
  /// End the phase at `timed_s`. A trailing part with fewer than 200
  /// operations is dropped unless it is the only window.
  void finish(double timed_s);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double rate_per_s() const { return percentile(rates_, 50.0); }
  [[nodiscard]] double p50_us() const { return percentile(p50s_, 50.0); }
  [[nodiscard]] double tail_us() const { return percentile(tails_, 50.0); }

 private:
  void close(double end_s);

  bool windowed_;
  std::size_t count_ = 0;
  double window_start_s_ = 0.0;
  std::vector<double> window_us_;
  std::vector<double> rates_;
  std::vector<double> p50s_;
  std::vector<double> tails_;
};

/// The end-to-end metrics every workload reports.
void add_end_to_end(Result& result, double setup_s, const OpStats& ops);

/// Per-layer metrics (traced run). Every name is always reported; a layer a
/// workload bypasses reads 0.
class Layers {
 public:
  Layers();
  void set(const std::string& name, double value);
  void emit(Result& result) const;

 private:
  std::map<std::string, double> values_;
};

/// Untraced / traced throughput, and the coverage check: layer self times
/// must account for at least 95% of the timed wall.
void set_trace_summary(Layers& layers, Result& result, double untraced_per_s,
                       double traced_per_s, double self_s, double timed_s);

}  // namespace perfbench
