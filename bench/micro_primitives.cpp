// google-benchmark micro-benchmarks of the library's hot primitives:
// signal integration, INA226 conversion, the hwmon read path, bignum modular
// arithmetic, random-forest training/inference, and the snapshot codec.
//
// Unlike the table/figure benches this binary has a custom main: it pins the
// thread pool to size 1 (so every A/B pair below measures single-thread
// algorithmic speedup, not parallelism), strips a --record-out PATH flag
// before google-benchmark sees the command line, and mirrors every result
// into an obs::RunRecord — BENCH_micro_primitives.json — alongside derived
// host-portable ratios (slower ns / faster ns of an adjacent pair measured
// in the same process: tree_fit_speedup, forest_predict_batch_speedup,
// forest_predict_simd_speedup, crc32_speedup) that tools/bench_compare
// gates on across commits.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "amperebleed/core/sampler.hpp"
#include "amperebleed/crypto/modexp.hpp"
#include "amperebleed/crypto/montgomery.hpp"
#include "amperebleed/crypto/rsa.hpp"
#include "amperebleed/fpga/power_virus.hpp"
#include "amperebleed/ml/decision_tree.hpp"
#include "amperebleed/ml/random_forest.hpp"
#include "amperebleed/obs/run_record.hpp"
#include "amperebleed/persist/codec.hpp"
#include "amperebleed/persist/state.hpp"
#include "amperebleed/sim/signal.hpp"
#include "amperebleed/soc/soc.hpp"
#include "amperebleed/util/rng.hpp"
#include "amperebleed/util/thread_pool.hpp"
#include "support/reference_crc32.hpp"
#include "support/reference_forest.hpp"

namespace {

using namespace amperebleed;

void BM_SignalIntegrate(benchmark::State& state) {
  sim::PiecewiseConstant signal(0.5);
  for (int i = 1; i <= state.range(0); ++i) {
    signal.append(sim::microseconds(100 * i), 0.5 + (i % 7) * 0.1);
  }
  const sim::TimeNs t0 = sim::microseconds(50);
  const sim::TimeNs t1 =
      sim::microseconds(100 * static_cast<int>(state.range(0)) / 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(signal.integrate(t0, t1));
  }
}
BENCHMARK(BM_SignalIntegrate)->Arg(100)->Arg(10'000);

void BM_SignalValueAt(benchmark::State& state) {
  sim::PiecewiseConstant signal(0.5);
  for (int i = 1; i <= 10'000; ++i) {
    signal.append(sim::microseconds(100 * i), (i % 13) * 0.1);
  }
  std::int64_t t = 0;
  for (auto _ : state) {
    t = (t + 37'119) % 1'000'000'000;
    benchmark::DoNotOptimize(signal.value_at(sim::TimeNs{t}));
  }
}
BENCHMARK(BM_SignalValueAt);

void BM_Ina226Conversion(benchmark::State& state) {
  sim::PiecewiseConstant current(1.5);
  sim::PiecewiseConstant voltage(0.85);
  sensors::Ina226 dev(sensors::Ina226Config{}, power::RailNoiseConfig{}, 1);
  dev.bind(&current, &voltage);
  std::int64_t t = 0;
  for (auto _ : state) {
    t += 35'200'000;  // one full conversion per iteration
    dev.advance_to(sim::TimeNs{t});
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Ina226Conversion);

void BM_HwmonReadPath(benchmark::State& state) {
  soc::Soc soc(soc::zcu102_config(1));
  fpga::PowerVirus virus;
  soc.add_activity(virus.activity());
  soc.finalize();
  core::Sampler sampler(soc);
  std::int64_t t = 40'000'000;
  for (auto _ : state) {
    t += 1'000'000;
    soc.advance_to(sim::TimeNs{t});
    benchmark::DoNotOptimize(
        sampler.read_now({power::Rail::FpgaLogic, core::Quantity::Current}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HwmonReadPath);

void BM_ModMul1024(benchmark::State& state) {
  const crypto::BigUInt m = crypto::rsa1024_test_modulus();
  const crypto::BigUInt a =
      crypto::exponent_with_hamming_weight(1024, 512, 1).mod(m);
  const crypto::BigUInt b =
      crypto::exponent_with_hamming_weight(1024, 512, 2).mod(m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::modmul(a, b, m));
  }
}
BENCHMARK(BM_ModMul1024);

void BM_MontgomeryMul1024(benchmark::State& state) {
  const crypto::BigUInt m = crypto::rsa1024_test_modulus();
  const crypto::MontgomeryContext ctx(m);
  const crypto::BigUInt a =
      ctx.to_mont(crypto::exponent_with_hamming_weight(1024, 512, 1).mod(m));
  const crypto::BigUInt b =
      ctx.to_mont(crypto::exponent_with_hamming_weight(1024, 512, 2).mod(m));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.mul(a, b));
  }
}
BENCHMARK(BM_MontgomeryMul1024);

void BM_MontgomeryModExp1024(benchmark::State& state) {
  const crypto::BigUInt m = crypto::rsa1024_test_modulus();
  const crypto::MontgomeryContext ctx(m);
  const crypto::BigUInt base =
      crypto::exponent_with_hamming_weight(1024, 512, 3).mod(m);
  const crypto::BigUInt exp =
      crypto::exponent_with_hamming_weight(1024, 512, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.modexp(base, exp));
  }
}
BENCHMARK(BM_MontgomeryModExp1024)->Unit(benchmark::kMillisecond);

void BM_ModExp64(benchmark::State& state) {
  const crypto::BigUInt m(0xffffffffffffffc5ULL);
  const crypto::BigUInt base(0x123456789abcdefULL);
  const crypto::BigUInt exp =
      crypto::exponent_with_hamming_weight(64, 32, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::modexp(base, exp, m));
  }
}
BENCHMARK(BM_ModExp64);

ml::Dataset synthetic_dataset(int classes, int per_class, int features) {
  util::Rng rng(42);
  ml::Dataset d(static_cast<std::size_t>(features));
  std::vector<double> row(static_cast<std::size_t>(features));
  for (int c = 0; c < classes; ++c) {
    for (int i = 0; i < per_class; ++i) {
      for (int f = 0; f < features; ++f) {
        row[static_cast<std::size_t>(f)] =
            rng.gaussian(c * ((f % 5) + 1) * 0.3, 1.0);
      }
      d.add(row, c);
    }
  }
  return d;
}

void BM_ForestTrain(benchmark::State& state) {
  const ml::Dataset data = synthetic_dataset(10, 20, 140);
  ml::ForestConfig config;
  config.n_trees = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    ml::RandomForest forest(config);
    forest.fit(data);
    benchmark::DoNotOptimize(forest.tree_count());
  }
}
BENCHMARK(BM_ForestTrain)->Arg(10)->Arg(100)->Unit(benchmark::kMillisecond);

void BM_ForestPredict(benchmark::State& state) {
  const ml::Dataset data = synthetic_dataset(10, 20, 140);
  ml::RandomForest forest;
  forest.fit(data);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.predict_top_k(data.row(i), 5));
    i = (i + 1) % data.size();
  }
}
BENCHMARK(BM_ForestPredict);

// ---------------------------------------------------------------------------
// A/B pairs for the cache-resident ML hot path. Each pair runs two adjacent
// implementations on IDENTICAL inputs (same dataset, same bootstrap
// indices, same RNG seed): a *Reference twin runs the oracle from
// tests/support, and the Batch/Simd pair runs the two arena kernels. The
// custom main below derives slower_ns / faster_ns speedup ratios from the
// pairs and lands them in the run record, where the CI perf gate watches
// them. Ratios are host-portable (both sides move together with CPU speed),
// unlike the raw _ns numbers.
// ---------------------------------------------------------------------------

/// Fingerprinting-shaped dataset at paper scale: 39 model classes (the
/// paper's model-zoo size), 256 features, 12 traces per class. At 468 x 256
/// doubles (~1 MB) the matrix exceeds L1 by far and competes with the sort
/// buffers for L2, so the reference splitter's strided row-major gathers
/// pay real cache misses; 39 classes also make its fixed-width Gini loops
/// expensive on the deep, class-poor nodes where the compact remap only
/// visits the classes present.
const ml::Dataset& tree_fit_dataset() {
  static const ml::Dataset data = synthetic_dataset(39, 12, 256);
  return data;
}

std::vector<std::size_t> bootstrap_indices(std::size_t n) {
  util::Rng rng(0xb007);
  std::vector<std::size_t> indices(n);
  for (auto& idx : indices) {
    idx = static_cast<std::size_t>(rng.uniform_below(n));
  }
  return indices;
}

void BM_TreeFit(benchmark::State& state) {
  const ml::Dataset& data = tree_fit_dataset();
  // The rank table is built once per RandomForest::fit and shared by all
  // trees; building it here keeps the loop measuring per-tree cost.
  const ml::ColumnRanks ranks(data);
  const auto indices = bootstrap_indices(data.size());
  for (auto _ : state) {
    util::Rng rng(0x7ee);
    const ml::ForestArena tree = ml::fit_tree(
        ml::TreeConfig{}, data, ranks, indices, data.class_count(), rng);
    benchmark::DoNotOptimize(tree.node_count());
  }
}
BENCHMARK(BM_TreeFit)->Unit(benchmark::kMicrosecond);

/// The original materialize-and-sort splitter on the same inputs;
/// tree_fit_speedup = this / BM_TreeFit.
void BM_TreeFitReference(benchmark::State& state) {
  const ml::Dataset& data = tree_fit_dataset();
  const auto indices = bootstrap_indices(data.size());
  for (auto _ : state) {
    util::Rng rng(0x7ee);
    const ml::reference::Tree tree = ml::reference::fit_tree(
        ml::TreeConfig{}, data, indices, data.class_count(), rng);
    benchmark::DoNotOptimize(tree.node_count());
  }
}
BENCHMARK(BM_TreeFitReference)->Unit(benchmark::kMicrosecond);

/// classify_steady's shape (perfbench): one tenant's forest is 100 trees at
/// depth 32 (the ForestConfig defaults) over 12 classes, fitted on 8
/// integer hwmon traces of 143 samples per class, and one service tick
/// sweeps 256 queued rows through it. Readings are whole milliamps around a
/// per-class level.
constexpr int kServeClasses = 12;
constexpr int kServeTracesPerClass = 8;
constexpr std::size_t kServeSamples = 143;
constexpr std::size_t kServeRows = 256;

ml::Dataset hwmon_traces(int per_class, std::uint64_t seed) {
  util::Rng rng(seed);
  ml::Dataset d(kServeSamples);
  std::vector<double> row(kServeSamples);
  for (int c = 0; c < kServeClasses; ++c) {
    for (int i = 0; i < per_class; ++i) {
      for (std::size_t f = 0; f < kServeSamples; ++f) {
        const double level = 800.0 + 3.0 * c + static_cast<double>(f % 13);
        row[f] = std::round(rng.gaussian(level, 4.0));
      }
      d.add(row, c);
    }
  }
  return d;
}

const ml::Dataset& serve_training() {
  static const ml::Dataset data =
      hwmon_traces(kServeTracesPerClass, 0x5e7e);
  return data;
}

/// Fitted once (static) so google-benchmark's repeated function
/// invocations don't refit.
const ml::RandomForest& serve_forest() {
  static const ml::RandomForest forest = [] {
    ml::RandomForest f;
    f.fit(serve_training());
    return f;
  }();
  return forest;
}

/// One tick's 256 probe rows, drawn like the training traces.
const std::vector<std::span<const double>>& serve_rows() {
  static const ml::Dataset probes = hwmon_traces(
      static_cast<int>((kServeRows + kServeClasses - 1) / kServeClasses),
      0x9b0be);
  static const std::vector<std::span<const double>> rows = [] {
    std::vector<std::span<const double>> r;
    for (std::size_t i = 0; i < kServeRows; ++i) r.push_back(probes.row(i));
    return r;
  }();
  return rows;
}

/// The scalar arena kernel alone, over the same 16-row blocks
/// predict_proba_many uses.
void BM_ForestPredictBatch(benchmark::State& state) {
  const auto& rows = serve_rows();
  const ml::ForestArena& arena = serve_forest().arena();
  constexpr std::size_t kBlock = ml::RandomForest::kPredictRowBlock;
  for (auto _ : state) {
    std::vector<std::vector<double>> out(rows.size());
    for (std::size_t lo = 0; lo < rows.size(); lo += kBlock) {
      arena.predict_proba_rows_scalar(
          rows, lo, std::min(lo + kBlock, rows.size()), out);
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows.size()));
}
BENCHMARK(BM_ForestPredictBatch)->Unit(benchmark::kMicrosecond);

/// The same forest as per-tree reference trees, walked row by row with
/// pointers: forest_predict_batch_speedup = this / BM_ForestPredictBatch
/// measures the arena layout win.
void BM_ForestPredictBatchReference(benchmark::State& state) {
  const auto& rows = serve_rows();
  static const ml::reference::Forest forest(ml::ForestConfig{},
                                            serve_training());
  for (auto _ : state) {
    for (const auto& row : rows) {
      benchmark::DoNotOptimize(forest.predict_proba(row));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows.size()));
}
BENCHMARK(BM_ForestPredictBatchReference)->Unit(benchmark::kMicrosecond);

/// The same batch through predict_proba_many, i.e. whichever kernel the
/// CPU picks (AVX2 on hosts that have it, else scalar).
/// forest_predict_simd_speedup = BM_ForestPredictBatch / this.
void BM_ForestPredictSimd(benchmark::State& state) {
  const auto& rows = serve_rows();
  const ml::RandomForest& forest = serve_forest();
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.predict_proba_many(rows));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows.size()));
}
BENCHMARK(BM_ForestPredictSimd)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// The snapshot codec at perfbench recover's shape: 200 tenants, each 3
// classes x 3 enrolled traces of 64 samples and a 20-tree forest (~1.5 MB).
// ---------------------------------------------------------------------------

/// 1.5 MiB of fixed random bytes, about one recover snapshot.
const std::string& crc_buffer() {
  static const std::string bytes = [] {
    util::Rng rng(0xc2c);
    std::string b(1536 * 1024, '\0');
    for (char& c : b) c = static_cast<char>(rng.uniform_below(256));
    return b;
  }();
  return bytes;
}

void BM_Crc32(benchmark::State& state) {
  const std::string& bytes = crc_buffer();
  for (auto _ : state) benchmark::DoNotOptimize(persist::crc32(bytes));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_Crc32)->Unit(benchmark::kMicrosecond);

/// The bytewise oracle; crc32_speedup = this / BM_Crc32.
void BM_Crc32Reference(benchmark::State& state) {
  const std::string& bytes = crc_buffer();
  for (auto _ : state) {
    benchmark::DoNotOptimize(persist::reference::crc32(bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_Crc32Reference)->Unit(benchmark::kMicrosecond);

/// One trained tenant's state; every snapshot tenant borrows it.
struct SnapshotTenant {
  std::vector<std::string> class_names{"net-0", "net-1", "net-2"};
  ml::Dataset data = synthetic_dataset(3, 3, 64);
  ml::ForestArena arena = [this] {
    ml::ForestConfig config;
    config.n_trees = 20;
    ml::RandomForest forest(config);
    forest.fit(data);
    return forest.arena();
  }();
};

const std::vector<persist::TenantView>& snapshot_views() {
  static const SnapshotTenant tenant;
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (int t = 0; t < 200; ++t) n.push_back("tenant-" + std::to_string(t));
    return n;
  }();
  static const std::vector<persist::TenantView> views = [] {
    std::vector<persist::TenantView> v;
    for (const std::string& name : names) {
      persist::TenantView& view = v.emplace_back();
      view.name = name;
      view.state = 1;
      view.enrolled = 9;
      view.feature_count = tenant.data.feature_count();
      view.class_names = &tenant.class_names;
      view.data = &tenant.data;
      view.arena = &tenant.arena;
    }
    return v;
  }();
  return views;
}

void BM_SnapshotEncode(benchmark::State& state) {
  const auto& views = snapshot_views();
  for (auto _ : state) {
    benchmark::DoNotOptimize(persist::encode_snapshot(1809, views));
  }
}
BENCHMARK(BM_SnapshotEncode)->Unit(benchmark::kMicrosecond);

void BM_SnapshotDecode(benchmark::State& state) {
  const std::string bytes =
      persist::encode_snapshot(1809, snapshot_views());
  for (auto _ : state) {
    benchmark::DoNotOptimize(persist::decode_snapshot(bytes, "snapshot"));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_SnapshotDecode)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Custom main: single-thread pool, console output, and an obs::RunRecord of
// every per-iteration timing plus the A/B speedup ratios.
// ---------------------------------------------------------------------------

/// Benchmark names become run-record number keys: "BM_SignalIntegrate/100"
/// -> "BM_SignalIntegrate_100_ns".
std::string sanitize_name(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    out.push_back(std::isalnum(static_cast<unsigned char>(c)) ? c : '_');
  }
  return out;
}

/// ConsoleReporter that additionally captures (name, ns/iteration) for every
/// per-iteration run (aggregates and errored runs are skipped).
class RecordingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred ||
          run.iterations == 0) {
        continue;
      }
      const double ns = run.real_accumulated_time /
                        static_cast<double>(run.iterations) * 1e9;
      results_.emplace_back(run.benchmark_name(), ns);
    }
    benchmark::ConsoleReporter::ReportRuns(reports);
  }

  [[nodiscard]] const std::vector<std::pair<std::string, double>>& results()
      const {
    return results_;
  }

  /// ns/iter for an exact benchmark name, or 0.0 when absent (filtered out).
  [[nodiscard]] double ns_for(std::string_view name) const {
    for (const auto& [key, ns] : results_) {
      if (key == name) return ns;
    }
    return 0.0;
  }

 private:
  std::vector<std::pair<std::string, double>> results_;
};

void write_record(const RecordingReporter& reporter, const std::string& path) {
  obs::RunRecord record("micro_primitives");
  for (const auto& [name, ns] : reporter.results()) {
    record.set_number(sanitize_name(name) + "_ns", ns);
  }
  // Host-portable A/B ratios (see the block comment above the ML benches).
  const auto ratio = [&](std::string_view slow, std::string_view fast) {
    const double slow_ns = reporter.ns_for(slow);
    const double fast_ns = reporter.ns_for(fast);
    return (slow_ns > 0.0 && fast_ns > 0.0) ? slow_ns / fast_ns : 0.0;
  };
  const double tree_fit = ratio("BM_TreeFitReference", "BM_TreeFit");
  const double batch =
      ratio("BM_ForestPredictBatchReference", "BM_ForestPredictBatch");
  const double simd = ratio("BM_ForestPredictBatch", "BM_ForestPredictSimd");
  const double crc = ratio("BM_Crc32Reference", "BM_Crc32");
  if (tree_fit > 0.0) record.set_number("tree_fit_speedup", tree_fit);
  if (batch > 0.0) record.set_number("forest_predict_batch_speedup", batch);
  if (simd > 0.0) record.set_number("forest_predict_simd_speedup", simd);
  if (crc > 0.0) record.set_number("crc32_speedup", crc);
  record.set_integer("benchmarks",
                     static_cast<std::int64_t>(reporter.results().size()));
  record.write(path);
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --record-out PATH before google-benchmark parses the flags.
  std::string record_path;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--record-out" && i + 1 < argc) {
      record_path = argv[++i];
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }

  // Pool size 1: A/B pairs measure single-thread algorithmic speedup, and
  // parallel-capable paths (predict_proba_many) take their serial branch.
  util::ThreadPool::set_global_threads(1);

  RecordingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (!record_path.empty()) write_record(reporter, record_path);
  return 0;
}
