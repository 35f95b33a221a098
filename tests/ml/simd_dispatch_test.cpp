// Exact-equality checks for the two ForestArena kernels (DESIGN.md §14):
// the scalar kernel, the AVX2 kernel when the CPU has it, and the
// dispatched predict_proba_many must all produce BIT-IDENTICAL
// probabilities to the per-tree pointer walk of the reference forest in
// tests/support, over adversarial rows (NaN, ±Inf, denormals, constants),
// every block-remainder shape, and multiple pool sizes.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "amperebleed/ml/dataset.hpp"
#include "amperebleed/ml/forest_arena.hpp"
#include "amperebleed/ml/random_forest.hpp"
#include "amperebleed/util/rng.hpp"
#include "amperebleed/util/thread_pool.hpp"
#include "support/reference_forest.hpp"

namespace {

using namespace amperebleed;

constexpr std::size_t kFeatures = 40;

ml::Dataset training_data() {
  util::Rng rng(0x51d);
  ml::Dataset data(kFeatures);
  std::vector<double> row(kFeatures);
  for (int c = 0; c < 8; ++c) {
    for (int i = 0; i < 24; ++i) {
      for (std::size_t f = 0; f < kFeatures; ++f) {
        row[f] = rng.gaussian(c * 0.4 * ((f % 3) + 1), 1.0);
      }
      data.add(row, c);
    }
  }
  return data;
}

ml::ForestConfig forest_config() {
  ml::ForestConfig config;
  config.n_trees = 25;
  return config;
}

const ml::RandomForest& forest() {
  static const ml::RandomForest f = [] {
    ml::RandomForest forest(forest_config());
    forest.fit(training_data());
    return forest;
  }();
  return f;
}

/// The same forest as per-tree reference trees (golden_split_test proves
/// the two fits identical); its pointer walk is the oracle.
const ml::reference::Forest& oracle() {
  static const ml::reference::Forest f(forest_config(), training_data());
  return f;
}

/// Prediction rows including every adversarial shape the kernels must agree
/// on: NaN (compares false -> go right in both kernels), ±Inf, denormals,
/// constant rows, and ordinary Gaussian rows.
std::vector<std::vector<double>> adversarial_rows(std::size_t count) {
  util::Rng rng(0xad5e);
  std::vector<std::vector<double>> rows;
  rows.reserve(count);
  for (std::size_t r = 0; r < count; ++r) {
    std::vector<double> row(kFeatures);
    switch (r % 6) {
      case 0:
        for (auto& v : row) v = rng.gaussian(0.0, 2.0);
        break;
      case 1:  // NaN-poisoned
        for (std::size_t f = 0; f < kFeatures; ++f) {
          row[f] = (f % 4 == 1) ? std::numeric_limits<double>::quiet_NaN()
                                : rng.gaussian(0.0, 2.0);
        }
        break;
      case 2:  // ±Inf spikes
        for (std::size_t f = 0; f < kFeatures; ++f) {
          row[f] = (f % 5 == 0) ? std::numeric_limits<double>::infinity()
                   : (f % 5 == 1)
                       ? -std::numeric_limits<double>::infinity()
                       : rng.gaussian(0.0, 2.0);
        }
        break;
      case 3:  // denormal-heavy
        for (std::size_t f = 0; f < kFeatures; ++f) {
          row[f] = static_cast<double>(f % 7) * 5e-324;
        }
        break;
      case 4:  // constant row
        for (auto& v : row) v = 0.75;
        break;
      default:
        for (auto& v : row) v = rng.gaussian(1.0, 0.25);
        break;
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<std::span<const double>> as_spans(
    const std::vector<std::vector<double>>& rows) {
  std::vector<std::span<const double>> spans;
  spans.reserve(rows.size());
  for (const auto& row : rows) spans.emplace_back(row);
  return spans;
}

void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0);
  }
}

class PoolSizeGuard {
 public:
  PoolSizeGuard() : before_(util::ThreadPool::global().size()) {}
  ~PoolSizeGuard() { util::ThreadPool::set_global_threads(before_); }

 private:
  std::size_t before_;
};

using Kernel = void (ml::ForestArena::*)(
    std::span<const std::span<const double>>, std::size_t, std::size_t,
    std::vector<std::vector<double>>&) const;

/// The kernels this host can run, by name: scalar always, AVX2 when the CPU
/// has it.
std::vector<std::pair<std::string, Kernel>> host_kernels() {
  std::vector<std::pair<std::string, Kernel>> kernels{
      {"scalar", &ml::ForestArena::predict_proba_rows_scalar}};
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2")) {
    kernels.emplace_back("avx2", &ml::ForestArena::predict_proba_rows_avx2);
  }
#endif
  return kernels;
}

std::vector<std::vector<double>> reference_probas(
    const std::vector<std::vector<double>>& rows) {
  std::vector<std::vector<double>> expected;
  expected.reserve(rows.size());
  for (const auto& row : rows) {
    expected.push_back(oracle().predict_proba(row));
  }
  return expected;
}

// Both kernels, every remainder shape (row counts around the 8-lane /
// 16-row block sizes), bit-identical to the reference pointer walk.
TEST(SimdDispatch, AllTiersMatchReferenceExactly) {
  const auto& arena = forest().arena();
  for (const std::size_t count : {std::size_t{1}, std::size_t{7},
                                  std::size_t{8}, std::size_t{9},
                                  std::size_t{16}, std::size_t{17},
                                  std::size_t{48}}) {
    const auto rows = adversarial_rows(count);
    const auto spans = as_spans(rows);
    const auto expected = reference_probas(rows);
    for (const auto& [name, kernel] : host_kernels()) {
      std::vector<std::vector<double>> got(count);
      (arena.*kernel)(spans, 0, count, got);
      for (std::size_t r = 0; r < count; ++r) {
        SCOPED_TRACE(name + " rows=" + std::to_string(count) +
                     " row=" + std::to_string(r));
        expect_bitwise_equal(got[r], expected[r]);
      }
    }
  }
}

// Empty batch: the dispatched path returns an empty result without
// touching rows.
TEST(SimdDispatch, EmptyBatch) {
  EXPECT_TRUE(forest().predict_proba_many({}).empty());
}

// Sub-range contract: each kernel fills exactly out[lo, hi), matching the
// reference there, and leaves every other slot untouched.
TEST(SimdDispatch, KernelEntryPointsAgree) {
  const auto& arena = forest().arena();
  const auto rows = adversarial_rows(21);
  const auto spans = as_spans(rows);
  const auto expected = reference_probas(rows);
  for (const auto& [name, kernel] : host_kernels()) {
    std::vector<std::vector<double>> partial(rows.size());
    (arena.*kernel)(spans, 3, 11, partial);
    for (std::size_t r = 0; r < rows.size(); ++r) {
      SCOPED_TRACE(name + " row=" + std::to_string(r));
      if (r >= 3 && r < 11) {
        expect_bitwise_equal(partial[r], expected[r]);
      } else {
        EXPECT_TRUE(partial[r].empty());
      }
    }
  }
}

// Pool-size sweep through the dispatched predict_proba_many: bit-identical
// to the reference at 1/4/8 threads (blocks are independent; within a block
// nothing changes).
TEST(SimdDispatch, PoolSizesBitIdentical) {
  PoolSizeGuard guard;
  const auto rows = adversarial_rows(33);
  const auto spans = as_spans(rows);
  const auto expected = reference_probas(rows);
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    util::ThreadPool::set_global_threads(threads);
    const auto got = forest().predict_proba_many(spans);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t r = 0; r < expected.size(); ++r) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " row=" + std::to_string(r));
      expect_bitwise_equal(got[r], expected[r]);
    }
  }
}

// Single-row predict_proba (arena accumulate) also matches the reference —
// the online service path.
TEST(SimdDispatch, SingleRowAccumulateMatchesReference) {
  const auto rows = adversarial_rows(12);
  for (const auto& row : rows) {
    expect_bitwise_equal(forest().predict_proba(row),
                         oracle().predict_proba(row));
  }
}

}  // namespace
