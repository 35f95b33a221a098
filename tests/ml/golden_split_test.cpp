// Golden bit-identity contract of the ML hot path: the presorted splitter
// (rank-coded columns, packed integer keys, counting or comparison sort,
// compact class remap) and the SoA forest arena must reproduce the
// reference forest in tests/support (the original materialize-and-sort
// splitter and per-tree pointer walk) EXACTLY — same node structure, same
// thresholds, same leaf distributions, same probabilities — on randomized
// datasets including duplicate-value and constant-feature columns,
// hwmon-like integer columns, adjacent doubles and overflowing midpoints,
// at every thread-pool size. Comparisons are exact (==), never
// tolerance-based: a single flipped split tie would change a tree and fail
// the forest-wide structural diff.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "amperebleed/ml/forest_arena.hpp"
#include "amperebleed/ml/kfold.hpp"
#include "amperebleed/ml/metrics.hpp"
#include "amperebleed/ml/random_forest.hpp"
#include "amperebleed/util/rng.hpp"
#include "amperebleed/util/strings.hpp"
#include "amperebleed/util/thread_pool.hpp"
#include "support/reference_forest.hpp"
#include "support/tree_depth.hpp"

namespace amperebleed::ml {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

/// Restores the previous global pool size even when an assertion fails.
class PoolSizeGuard {
 public:
  PoolSizeGuard() : before_(util::ThreadPool::global().size()) {}
  ~PoolSizeGuard() { util::ThreadPool::set_global_threads(before_); }

 private:
  std::size_t before_;
};

/// How make_dataset draws the non-constant columns.
enum class Values : std::int16_t {
  kGaussian,  // class-shifted gaussians, optionally quantized
  kHwmon,     // integer readings with few distinct values per column
  kHalfStep,  // integers and half-steps, as linear gap filling leaves them
  kAdjacent,  // a ladder of adjacent doubles: some midpoints round up
  kHuge,      // multiples of 5e307: some midpoint sums overflow to +-inf
};

struct DatasetSpec {
  int classes = 4;
  int per_class = 20;
  int features = 10;
  /// Quantization denominator: > 0 rounds every value to multiples of
  /// 1/quantize, manufacturing heavy duplicate runs within columns.
  int quantize = 0;
  /// Number of leading columns forced constant.
  std::int16_t constant_columns = 0;
  Values values = Values::kGaussian;
};
// gtest names each case after the raw bytes of its DatasetSpec. The two
// 16-bit tail fields keep the struct at 20 bytes, and a kGaussian row has
// the same bytes as a five-int row, so the older cases keep their names.
static_assert(sizeof(DatasetSpec) == 5 * sizeof(int));

/// Column value of a row of class `c` in column `f` under `spec.values`.
double draw_value(const DatasetSpec& spec, int c, int f, util::Rng& rng) {
  switch (spec.values) {
    case Values::kGaussian: {
      double v = rng.gaussian(c * 0.8 + f * 0.05, 1.0);
      if (spec.quantize > 0) {
        v = std::round(v * spec.quantize) / spec.quantize;
      }
      return v;
    }
    case Values::kHwmon:
      return std::round(rng.gaussian(800.0 + 3.0 * c + f, 4.0));
    case Values::kHalfStep:
      return std::round(2.0 * rng.gaussian(800.0 + 1.5 * c + f, 2.0)) / 2.0;
    case Values::kAdjacent: {
      // 1 + 2^-52 has an odd last mantissa bit, so the midpoint of it and
      // its successor rounds up to the successor (ties to even).
      double v = 1.0 + 0x1p-52;
      const double steps = std::clamp(std::round(rng.gaussian(c, 1.0)), 0.0,
                                      static_cast<double>(spec.classes + 2));
      for (int i = 0; i < static_cast<int>(steps); ++i) {
        v = std::nextafter(v, 2.0);
      }
      return v;
    }
    case Values::kHuge: {
      const double steps =
          std::clamp(std::round(rng.gaussian(c - 0.5 * spec.classes, 1.0)),
                     -3.0, 3.0);
      return steps * 5e307;  // |v| <= 1.5e308 < DBL_MAX
    }
  }
  return 0.0;
}

Dataset make_dataset(const DatasetSpec& spec, std::uint64_t seed) {
  util::Rng rng(seed);
  Dataset d(static_cast<std::size_t>(spec.features));
  std::vector<double> row(static_cast<std::size_t>(spec.features));
  for (int c = 0; c < spec.classes; ++c) {
    for (int i = 0; i < spec.per_class; ++i) {
      for (int f = 0; f < spec.features; ++f) {
        if (f < spec.constant_columns) {
          row[static_cast<std::size_t>(f)] = 3.25;  // exactly representable
          continue;
        }
        row[static_cast<std::size_t>(f)] = draw_value(spec, c, f, rng);
      }
      d.add(row, c);
    }
  }
  return d;
}

/// Exact structural equality of two packed forests.
void expect_arena_equal(const ForestArena& a, const ForestArena& b) {
  EXPECT_EQ(a.class_count, b.class_count);
  EXPECT_EQ(a.roots, b.roots);
  EXPECT_EQ(a.feature, b.feature);
  EXPECT_EQ(a.threshold, b.threshold);  // exact double equality
  EXPECT_EQ(a.right, b.right);
  EXPECT_EQ(a.dists, b.dists);
}

ForestConfig forest_config(std::size_t n_trees, std::uint64_t seed) {
  ForestConfig config;
  config.n_trees = n_trees;
  config.seed = seed;
  return config;
}

/// cross_validate's folds and per-fold seeds, with the reference forest
/// fitted on each fold's training rows and its pointer walk ranking the
/// held-out rows.
CrossValResult reference_cross_validate(const Dataset& data,
                                        const ForestConfig& config,
                                        std::size_t k, std::uint64_t seed) {
  std::vector<int> truth;
  std::vector<int> top1;
  std::vector<std::vector<int>> top5;
  const auto folds = stratified_kfold(data.labels(), k, seed);
  for (std::size_t f = 0; f < folds.size(); ++f) {
    ForestConfig fold_config = config;
    fold_config.seed = util::hash_combine(config.seed, f);
    const reference::Forest forest(fold_config,
                                   data.subset(folds[f].train_indices));
    for (std::size_t i : folds[f].test_indices) {
      truth.push_back(data.label(i));
      auto candidates = top_k_from_proba(forest.predict_proba(data.row(i)), 5);
      top1.push_back(candidates.empty() ? -1 : candidates.front());
      top5.push_back(std::move(candidates));
    }
  }
  CrossValResult result;
  result.evaluated = truth.size();
  result.top1_accuracy = accuracy(truth, top1);
  result.top5_accuracy = top_k_accuracy(truth, top5);
  return result;
}

class GoldenSplit : public ::testing::TestWithParam<DatasetSpec> {};

TEST_P(GoldenSplit, SingleTreeStructurallyIdentical) {
  const Dataset data = make_dataset(GetParam(), 0x90'1d);
  std::vector<std::size_t> indices(data.size());
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  // Repeat a chunk to mimic bootstrap multiplicity.
  for (std::size_t i = 0; i < data.size() / 3; ++i) indices.push_back(i);

  util::Rng rng_fast(0xabc);
  util::Rng rng_naive(0xabc);
  const ForestArena fast =
      fit_tree(TreeConfig{}, data, ColumnRanks(data), indices,
               data.class_count(), rng_fast);
  const reference::Tree naive = reference::fit_tree(
      TreeConfig{}, data, indices, data.class_count(), rng_naive);

  EXPECT_EQ(fast.node_count(), naive.node_count());
  EXPECT_EQ(test::tree_depth(fast, 0), naive.depth);

  ForestArena packed;
  packed.class_count = data.class_count();
  naive.append_to(packed);
  expect_arena_equal(fast, packed);

  for (std::size_t i = 0; i < data.size(); ++i) {
    const double* pf = fast.leaf_dist(0, data.row(i).data());
    const auto pn = naive.predict_proba(data.row(i));
    ASSERT_EQ(static_cast<std::size_t>(fast.class_count), pn.size());
    for (std::size_t c = 0; c < pn.size(); ++c) {
      EXPECT_EQ(pf[c], pn[c]) << "row " << i << " class " << c;
    }
  }
}

TEST_P(GoldenSplit, ForestBitIdenticalAcrossSplittersAndPoolSizes) {
  PoolSizeGuard guard;
  const Dataset data = make_dataset(GetParam(), 0xf0'0d);

  // The reference forest, fitted serially, is the oracle.
  const reference::Forest oracle(forest_config(12, 0x5eed), data);
  const ForestArena oracle_arena = oracle.arena();

  for (std::size_t threads : kThreadCounts) {
    util::ThreadPool::set_global_threads(threads);
    RandomForest fast(forest_config(12, 0x5eed));
    fast.fit(data);

    // Full structural diff of the packed forests.
    expect_arena_equal(fast.arena(), oracle_arena);

    // Arena walk == per-tree pointer walk, exactly.
    util::Rng probe_rng(0xbeef);
    std::vector<double> probe(data.feature_count());
    for (int rep = 0; rep < 20; ++rep) {
      for (auto& v : probe) v = probe_rng.gaussian(1.0, 2.0);
      EXPECT_EQ(fast.predict_proba(probe), oracle.predict_proba(probe));
    }
  }
}

TEST_P(GoldenSplit, BlockedBatchMatchesReferenceWalkPerRow) {
  PoolSizeGuard guard;
  const Dataset data = make_dataset(GetParam(), 0xb10c);
  RandomForest forest(forest_config(10, 0x77));
  forest.fit(data);
  const reference::Forest oracle(forest_config(10, 0x77), data);

  std::vector<std::span<const double>> rows;
  for (std::size_t i = 0; i < data.size(); ++i) rows.push_back(data.row(i));

  for (std::size_t threads : kThreadCounts) {
    util::ThreadPool::set_global_threads(threads);
    const auto batched = forest.predict_proba_many(rows);
    ASSERT_EQ(batched.size(), rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(batched[i], oracle.predict_proba(rows[i]))
          << "row " << i;
    }
  }
}

std::string spec_name(const ::testing::TestParamInfo<DatasetSpec>& info) {
  static constexpr const char* kSuffix[] = {"", "hwmon", "half", "adjacent",
                                            "huge"};
  const auto& s = info.param;
  return util::format("c%dx%df%dq%dk%d%s", s.classes, s.per_class,
                      s.features, s.quantize,
                      static_cast<int>(s.constant_columns),
                      kSuffix[static_cast<int>(s.values)]);
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, GoldenSplit,
    ::testing::Values(
        DatasetSpec{4, 20, 10, 0, 0},    // continuous features
        DatasetSpec{4, 20, 10, 4, 0},    // coarse quantization: duplicate-heavy
        DatasetSpec{6, 15, 8, 2, 2},     // duplicates + constant columns
        DatasetSpec{2, 40, 5, 1, 1},     // extreme ties, binary labels
        DatasetSpec{9, 8, 12, 0, 3},     // many classes, several constants
        // hwmon-like integer columns: few distinct ranks, counting path
        DatasetSpec{6, 30, 10, 0, 1, Values::kHwmon},
        DatasetSpec{5, 24, 8, 0, 0, Values::kHalfStep},  // gap-fill halves
        DatasetSpec{4, 25, 6, 0, 0, Values::kAdjacent},  // midpoint rounds up
        DatasetSpec{6, 20, 6, 0, 1, Values::kHuge},      // midpoint overflow
        DatasetSpec{300, 2, 6, 0, 0, Values::kHwmon}),   // wide class count
    spec_name);

TEST(GoldenSplit, CrossValidationAccuraciesIdenticalAcrossSplitters) {
  PoolSizeGuard guard;
  const Dataset data = make_dataset({5, 12, 8, 3, 1}, 0xc5);
  const auto b = reference_cross_validate(data, forest_config(8, 0x42), 4, 0x99);
  for (std::size_t threads : kThreadCounts) {
    util::ThreadPool::set_global_threads(threads);
    const auto a = cross_validate(data, forest_config(8, 0x42), 4, 0x99);
    EXPECT_EQ(a.top1_accuracy, b.top1_accuracy);
    EXPECT_EQ(a.top5_accuracy, b.top5_accuracy);
    EXPECT_EQ(a.evaluated, b.evaluated);
  }
}

}  // namespace
}  // namespace amperebleed::ml
