// google-benchmark micro-benchmarks of the library's hot primitives:
// signal integration, INA226 conversion, the hwmon read path, bignum modular
// arithmetic, trace preprocessing, and random-forest training/inference.
//
// Unlike the table/figure benches this binary has a custom main: it pins the
// thread pool to size 1 (so every A/B pair below measures single-thread
// algorithmic speedup, not parallelism), strips a --record-out PATH flag
// before google-benchmark sees the command line, and mirrors every result
// into an obs::RunRecord — BENCH_micro_primitives.json — alongside derived
// host-portable ratios (tree_fit_speedup, forest_predict_batch_speedup =
// reference ns / optimized ns measured in the same process) that
// tools/bench_compare gates on across commits.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cctype>
#include <numeric>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "amperebleed/core/features.hpp"
#include "amperebleed/core/preprocess.hpp"
#include "amperebleed/core/preprocess_reference.hpp"
#include "amperebleed/core/sampler.hpp"
#include "amperebleed/crypto/modexp.hpp"
#include "amperebleed/crypto/montgomery.hpp"
#include "amperebleed/crypto/rsa.hpp"
#include "amperebleed/fpga/power_virus.hpp"
#include "amperebleed/ml/decision_tree.hpp"
#include "amperebleed/ml/random_forest.hpp"
#include "amperebleed/obs/run_record.hpp"
#include "amperebleed/sim/signal.hpp"
#include "amperebleed/soc/soc.hpp"
#include "amperebleed/util/rng.hpp"
#include "amperebleed/util/thread_pool.hpp"

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
// A/B pairs for the cache-resident ML hot path. Each optimized bench has a
// *Reference twin running the retained naive implementation on IDENTICAL
// inputs (same dataset, same bootstrap indices, same RNG seed); the custom
// main below derives reference_ns / optimized_ns speedup ratios from the
// pair and lands them in the run record, where the CI perf gate watches
// them. Ratios are host-portable (both sides move together with CPU speed),
// unlike the raw _ns numbers.
// ---------------------------------------------------------------------------

/// Fingerprinting-shaped dataset at paper scale: 39 model classes (the
/// paper's model-zoo size), 256 features (~the resampled trace length), 12
/// traces per class. At 468 x 256 doubles (~1 MB) the matrix exceeds L1 by
/// far and competes with the sort buffers for L2, so the reference
/// splitter's strided row-major gathers pay real cache misses; 39 classes
/// also make its fixed-width Gini loops expensive on the deep, class-poor
/// nodes where the compact remap only visits the classes present.
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

void tree_fit_bench(benchmark::State& state,
                    ml::TreeConfig::Splitter splitter) {
  const ml::Dataset& data = tree_fit_dataset();
  // The rank table is built once per RandomForest::fit and shared by all
  // trees; building it here keeps the loop measuring per-tree cost.
  const ml::ColumnRanks ranks(data);
  const auto indices = bootstrap_indices(data.size());
  ml::TreeConfig config;
  config.splitter = splitter;
  for (auto _ : state) {
    util::Rng rng(0x7ee);
    ml::DecisionTree tree(config);
    tree.fit(data, ranks, indices, data.class_count(), rng);
    benchmark::DoNotOptimize(tree.node_count());
  }
}

void BM_TreeFit(benchmark::State& state) {
  tree_fit_bench(state, ml::TreeConfig::Splitter::kPresorted);
}
BENCHMARK(BM_TreeFit)->Unit(benchmark::kMicrosecond);

void BM_TreeFitReference(benchmark::State& state) {
  tree_fit_bench(state, ml::TreeConfig::Splitter::kReference);
}
BENCHMARK(BM_TreeFitReference)->Unit(benchmark::kMicrosecond);

/// Paper-scale forest for the batch-inference A/B: 100 trees over the
/// class-rich dataset. The retained per-tree pointer walk re-streams every
/// tree's heap nodes for every row (several MB per row at this size); the
/// arena walk streams the packed SoA trees once per 16-row block. Fitted
/// once (static) so google-benchmark's repeated function invocations don't
/// refit.
const ml::RandomForest& batch_forest() {
  static const ml::RandomForest forest = [] {
    ml::ForestConfig config;
    config.n_trees = 100;
    ml::RandomForest f(config);
    f.fit(tree_fit_dataset());
    return f;
  }();
  return forest;
}

/// The scalar arena kernel alone, over the same 16-row blocks
/// predict_proba_many uses: this pair measures the arena layout win (SoA
/// arena vs per-tree pointer walk) in isolation.
void BM_ForestPredictBatch(benchmark::State& state) {
  const ml::Dataset& data = tree_fit_dataset();
  const ml::ForestArena& arena = batch_forest().arena();
  std::vector<std::span<const double>> rows;
  for (std::size_t i = 0; i < data.size(); ++i) rows.push_back(data.row(i));
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

void BM_ForestPredictBatchReference(benchmark::State& state) {
  const ml::Dataset& data = tree_fit_dataset();
  const ml::RandomForest& forest = batch_forest();
  for (auto _ : state) {
    for (std::size_t i = 0; i < data.size(); ++i) {
      benchmark::DoNotOptimize(forest.predict_proba_reference(data.row(i)));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_ForestPredictBatchReference)->Unit(benchmark::kMicrosecond);

/// The same paper-scale batch through predict_proba_many, i.e. whichever
/// kernel the CPU picks (AVX2 on hosts that have it, else scalar).
/// forest_predict_simd_speedup = BM_ForestPredictBatchReference / this.
void BM_ForestPredictSimd(benchmark::State& state) {
  const ml::Dataset& data = tree_fit_dataset();
  const ml::RandomForest& forest = batch_forest();
  std::vector<std::span<const double>> rows;
  for (std::size_t i = 0; i < data.size(); ++i) rows.push_back(data.row(i));
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.predict_proba_many(rows));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows.size()));
}
BENCHMARK(BM_ForestPredictSimd)->Unit(benchmark::kMicrosecond);

/// The attacker-side trace cleanup chain feeding the classifier: dedup the
/// oversampled register reads, detrend thermal drift, resample to the
/// feature width, then smooth.
void BM_PreprocessPipeline(benchmark::State& state) {
  util::Rng rng(0x9e9);
  std::vector<double> raw(8192);
  double level = 1.0;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (i % 3 == 0) level = 1.0 + rng.gaussian(0.0, 0.05);
    raw[i] = level + static_cast<double>(i) * 1e-5;  // drift + held samples
  }
  for (auto _ : state) {
    auto dedup = core::deduplicate_runs(raw);
    core::detrend(dedup);
    auto resampled = core::resample(dedup, 160);
    benchmark::DoNotOptimize(core::sliding_mean(resampled, 4, 2));
  }
}
BENCHMARK(BM_PreprocessPipeline);

/// Same chain through the retained pre-PR9 naive kernels;
/// preprocess_pipeline_speedup = reference/optimized.
void BM_PreprocessPipelineReference(benchmark::State& state) {
  util::Rng rng(0x9e9);
  std::vector<double> raw(8192);
  double level = 1.0;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    if (i % 3 == 0) level = 1.0 + rng.gaussian(0.0, 0.05);
    raw[i] = level + static_cast<double>(i) * 1e-5;
  }
  for (auto _ : state) {
    auto dedup = core::deduplicate_runs(raw);
    core::reference::detrend(dedup);
    auto resampled = core::resample(dedup, 160);
    benchmark::DoNotOptimize(core::reference::sliding_mean(resampled, 4, 2));
  }
}
BENCHMARK(BM_PreprocessPipelineReference);

// ---------------------------------------------------------------------------
// Per-kernel preprocess A/B pairs (informational _ns rows; the gated ratio
// is the whole-pipeline pair above). Inputs are hwmon-shaped: a noisy level
// with drift, long enough (8k samples) that the kernels stream from L2.
// ---------------------------------------------------------------------------

std::vector<double> preprocess_input(std::size_t n) {
  util::Rng rng(0x51de);
  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = 1.0 + rng.gaussian(0.0, 0.05) + static_cast<double>(i) * 1e-5;
  }
  return xs;
}

void BM_SlidingMean(benchmark::State& state) {
  const auto xs = preprocess_input(8192);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::sliding_mean(xs, 32, 4));
  }
}
BENCHMARK(BM_SlidingMean);

void BM_SlidingMeanReference(benchmark::State& state) {
  const auto xs = preprocess_input(8192);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::reference::sliding_mean(xs, 32, 4));
  }
}
BENCHMARK(BM_SlidingMeanReference);

void BM_Standardize(benchmark::State& state) {
  const auto xs = preprocess_input(8192);
  for (auto _ : state) {
    auto copy = xs;
    core::standardize(copy);
    benchmark::DoNotOptimize(copy.data());
  }
}
BENCHMARK(BM_Standardize);

void BM_StandardizeReference(benchmark::State& state) {
  const auto xs = preprocess_input(8192);
  for (auto _ : state) {
    auto copy = xs;
    core::reference::standardize(copy);
    benchmark::DoNotOptimize(copy.data());
  }
}
BENCHMARK(BM_StandardizeReference);

void BM_Detrend(benchmark::State& state) {
  const auto xs = preprocess_input(8192);
  for (auto _ : state) {
    auto copy = xs;
    core::detrend(copy);
    benchmark::DoNotOptimize(copy.data());
  }
}
BENCHMARK(BM_Detrend);

void BM_DetrendReference(benchmark::State& state) {
  const auto xs = preprocess_input(8192);
  for (auto _ : state) {
    auto copy = xs;
    core::reference::detrend(copy);
    benchmark::DoNotOptimize(copy.data());
  }
}
BENCHMARK(BM_DetrendReference);

void BM_Alignment(benchmark::State& state) {
  const auto ref = preprocess_input(2048);
  const auto probe = core::shift(ref, 17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::best_alignment_shift(ref, probe, 64));
  }
}
BENCHMARK(BM_Alignment)->Unit(benchmark::kMicrosecond);

void BM_AlignmentReference(benchmark::State& state) {
  const auto ref = preprocess_input(2048);
  const auto probe = core::shift(ref, 17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::reference::best_alignment_shift(ref, probe, 64));
  }
}
BENCHMARK(BM_AlignmentReference)->Unit(benchmark::kMicrosecond);

void BM_FillGapsHoldLast(benchmark::State& state) {
  const auto xs = preprocess_input(8192);
  std::vector<std::uint8_t> validity(xs.size(), 1);
  for (std::size_t i = 0; i < validity.size(); i += 3) validity[i] = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::fill_gaps(xs, validity, core::GapPolicy::HoldLast));
  }
}
BENCHMARK(BM_FillGapsHoldLast);

void BM_FillGapsHoldLastReference(benchmark::State& state) {
  const auto xs = preprocess_input(8192);
  std::vector<std::uint8_t> validity(xs.size(), 1);
  for (std::size_t i = 0; i < validity.size(); i += 3) validity[i] = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::reference::fill_gaps(xs, validity, core::GapPolicy::HoldLast));
  }
}
BENCHMARK(BM_FillGapsHoldLastReference);

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
  const auto ratio = [&](std::string_view reference, std::string_view fast) {
    const double ref_ns = reporter.ns_for(reference);
    const double fast_ns = reporter.ns_for(fast);
    return (ref_ns > 0.0 && fast_ns > 0.0) ? ref_ns / fast_ns : 0.0;
  };
  const double tree_fit = ratio("BM_TreeFitReference", "BM_TreeFit");
  const double batch =
      ratio("BM_ForestPredictBatchReference", "BM_ForestPredictBatch");
  const double simd =
      ratio("BM_ForestPredictBatchReference", "BM_ForestPredictSimd");
  const double preprocess =
      ratio("BM_PreprocessPipelineReference", "BM_PreprocessPipeline");
  if (tree_fit > 0.0) record.set_number("tree_fit_speedup", tree_fit);
  if (batch > 0.0) record.set_number("forest_predict_batch_speedup", batch);
  if (simd > 0.0) record.set_number("forest_predict_simd_speedup", simd);
  if (preprocess > 0.0) {
    record.set_number("preprocess_pipeline_speedup", preprocess);
  }
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
