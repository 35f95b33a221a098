#include "amperebleed/ml/decision_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

#include "amperebleed/util/rng.hpp"
#include "support/tree_depth.hpp"

namespace amperebleed::ml {
namespace {

Dataset two_blob_dataset(int per_class, std::uint64_t seed) {
  util::Rng rng(seed);
  Dataset d(2);
  for (int i = 0; i < per_class; ++i) {
    const std::vector<double> a = {rng.gaussian(0.0, 0.5),
                                   rng.gaussian(0.0, 0.5)};
    const std::vector<double> b = {rng.gaussian(5.0, 0.5),
                                   rng.gaussian(5.0, 0.5)};
    d.add(a, 0);
    d.add(b, 1);
  }
  return d;
}

std::vector<std::size_t> all_indices(const Dataset& d) {
  std::vector<std::size_t> idx(d.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  return idx;
}

/// Class distribution of the leaf `row` reaches in a one-tree arena.
std::span<const double> leaf_proba(const ForestArena& tree,
                                   std::span<const double> row) {
  return {tree.leaf_dist(0, row.data()),
          static_cast<std::size_t>(tree.class_count)};
}

/// Most probable class at the leaf `row` reaches (first max on ties).
int predict(const ForestArena& tree, std::span<const double> row) {
  const auto proba = leaf_proba(tree, row);
  return static_cast<int>(std::distance(
      proba.begin(), std::max_element(proba.begin(), proba.end())));
}

TEST(DecisionTree, FitsSeparableBlobsExactly) {
  const Dataset d = two_blob_dataset(50, 1);
  util::Rng rng(2);
  const ForestArena tree =
      fit_tree(TreeConfig{}, d, ColumnRanks(d), all_indices(d), 2, rng);
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(predict(tree, d.row(i)), d.label(i));
  }
}

TEST(DecisionTree, PredictProbaIsDistribution) {
  const Dataset d = two_blob_dataset(20, 3);
  util::Rng rng(4);
  const ForestArena tree =
      fit_tree(TreeConfig{}, d, ColumnRanks(d), all_indices(d), 2, rng);
  const auto p = leaf_proba(tree, d.row(0));
  ASSERT_EQ(p.size(), 2u);
  EXPECT_NEAR(p[0] + p[1], 1.0, 1e-12);
  EXPECT_GE(p[0], 0.0);
  EXPECT_GE(p[1], 0.0);
}

TEST(DecisionTree, RespectsMaxDepth) {
  // Alternating labels along one axis need depth ~log2(n); cap it at 1.
  Dataset d(1);
  for (int i = 0; i < 16; ++i) {
    const std::vector<double> row = {static_cast<double>(i)};
    d.add(row, i % 2);
  }
  TreeConfig config;
  config.max_depth = 1;
  util::Rng rng(5);
  const ForestArena tree =
      fit_tree(config, d, ColumnRanks(d), all_indices(d), 2, rng);
  EXPECT_LE(test::tree_depth(tree, 0), 1);
}

TEST(DecisionTree, PureNodeBecomesLeafImmediately) {
  Dataset d(2);
  for (int i = 0; i < 10; ++i) {
    const std::vector<double> row = {static_cast<double>(i), 0.0};
    d.add(row, 3);  // single class with id 3
  }
  util::Rng rng(6);
  const ForestArena tree =
      fit_tree(TreeConfig{}, d, ColumnRanks(d), all_indices(d), 4, rng);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(predict(tree, d.row(0)), 3);
}

TEST(DecisionTree, ConstantFeaturesYieldMajorityLeaf) {
  Dataset d(1);
  const std::vector<double> same = {1.0};
  d.add(same, 0);
  d.add(same, 0);
  d.add(same, 1);
  util::Rng rng(7);
  const ForestArena tree =
      fit_tree(TreeConfig{}, d, ColumnRanks(d), all_indices(d), 2, rng);
  EXPECT_EQ(predict(tree, same), 0);
}

TEST(DecisionTree, ThrowsWithoutSamplesOrClasses) {
  Dataset d(1);
  util::Rng rng(8);
  EXPECT_THROW(
      static_cast<void>(fit_tree(TreeConfig{}, d, ColumnRanks(d), {}, 2, rng)),
      std::invalid_argument);
  const std::vector<double> row = {1.0};
  d.add(row, 0);
  EXPECT_THROW(static_cast<void>(fit_tree(TreeConfig{}, d, ColumnRanks(d),
                                          all_indices(d), 0, rng)),
               std::invalid_argument);
}

TEST(DecisionTree, RejectsRankTableOfAnotherDataset) {
  const Dataset d = two_blob_dataset(10, 12);
  const Dataset other = two_blob_dataset(11, 12);
  util::Rng rng(13);
  EXPECT_THROW(static_cast<void>(fit_tree(TreeConfig{}, d, ColumnRanks(other),
                                          all_indices(d), 2, rng)),
               std::invalid_argument);
}

TEST(DecisionTree, BootstrapIndicesWithRepetitionWork) {
  const Dataset d = two_blob_dataset(30, 9);
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < d.size(); ++i) {
    idx.push_back(i % 10);  // heavy repetition
  }
  util::Rng rng(10);
  const ForestArena tree =
      fit_tree(TreeConfig{}, d, ColumnRanks(d), idx, 2, rng);
  EXPECT_EQ(tree.tree_count(), 1u);
}

TEST(DecisionTree, XorNeedsDepthTwo) {
  Dataset d(2);
  const std::vector<std::vector<double>> pts = {
      {0.0, 0.0}, {0.0, 1.0}, {1.0, 0.0}, {1.0, 1.0}};
  const std::vector<int> labels = {0, 1, 1, 0};
  // Replicate to give splits something to chew on.
  for (int rep = 0; rep < 8; ++rep) {
    for (std::size_t i = 0; i < pts.size(); ++i) d.add(pts[i], labels[i]);
  }
  TreeConfig config;
  config.max_features = 2;  // examine both features at each node
  util::Rng rng(11);
  const ForestArena tree =
      fit_tree(config, d, ColumnRanks(d), all_indices(d), 2, rng);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(predict(tree, pts[i]), labels[i]);
  }
  EXPECT_GE(test::tree_depth(tree, 0), 2);
}

}  // namespace
}  // namespace amperebleed::ml
