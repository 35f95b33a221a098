#include "amperebleed/ml/decision_tree.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "amperebleed/util/rng.hpp"

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

TEST(DecisionTree, FitsSeparableBlobsExactly) {
  const Dataset d = two_blob_dataset(50, 1);
  DecisionTree tree;
  util::Rng rng(2);
  tree.fit(d, ColumnRanks(d), all_indices(d), 2, rng);
  for (std::size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(tree.predict(d.row(i)), d.label(i));
  }
}

TEST(DecisionTree, PredictProbaIsDistribution) {
  const Dataset d = two_blob_dataset(20, 3);
  DecisionTree tree;
  util::Rng rng(4);
  tree.fit(d, ColumnRanks(d), all_indices(d), 2, rng);
  const auto p = tree.predict_proba(d.row(0));
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
  DecisionTree tree(config);
  util::Rng rng(5);
  tree.fit(d, ColumnRanks(d), all_indices(d), 2, rng);
  EXPECT_LE(tree.depth(), 1);
}

TEST(DecisionTree, PureNodeBecomesLeafImmediately) {
  Dataset d(2);
  for (int i = 0; i < 10; ++i) {
    const std::vector<double> row = {static_cast<double>(i), 0.0};
    d.add(row, 3);  // single class with id 3
  }
  DecisionTree tree;
  util::Rng rng(6);
  tree.fit(d, ColumnRanks(d), all_indices(d), 4, rng);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.predict(d.row(0)), 3);
}

TEST(DecisionTree, ConstantFeaturesYieldMajorityLeaf) {
  Dataset d(1);
  const std::vector<double> same = {1.0};
  d.add(same, 0);
  d.add(same, 0);
  d.add(same, 1);
  DecisionTree tree;
  util::Rng rng(7);
  tree.fit(d, ColumnRanks(d), all_indices(d), 2, rng);
  EXPECT_EQ(tree.predict(same), 0);
}

TEST(DecisionTree, ThrowsWithoutSamplesOrClasses) {
  Dataset d(1);
  DecisionTree tree;
  util::Rng rng(8);
  EXPECT_THROW(tree.fit(d, ColumnRanks(d), {}, 2, rng), std::invalid_argument);
  const std::vector<double> row = {1.0};
  d.add(row, 0);
  EXPECT_THROW(tree.fit(d, ColumnRanks(d), all_indices(d), 0, rng),
               std::invalid_argument);
}

TEST(DecisionTree, RejectsRankTableOfAnotherDataset) {
  const Dataset d = two_blob_dataset(10, 12);
  const Dataset other = two_blob_dataset(11, 12);
  DecisionTree tree;
  util::Rng rng(13);
  EXPECT_THROW(tree.fit(d, ColumnRanks(other), all_indices(d), 2, rng),
               std::invalid_argument);
}

TEST(DecisionTree, PredictBeforeFitThrows) {
  DecisionTree tree;
  const std::vector<double> x = {0.0};
  EXPECT_THROW(static_cast<void>(tree.predict(x)), std::logic_error);
}

TEST(DecisionTree, BootstrapIndicesWithRepetitionWork) {
  const Dataset d = two_blob_dataset(30, 9);
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < d.size(); ++i) {
    idx.push_back(i % 10);  // heavy repetition
  }
  DecisionTree tree;
  util::Rng rng(10);
  tree.fit(d, ColumnRanks(d), idx, 2, rng);
  EXPECT_TRUE(tree.fitted());
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
  DecisionTree tree(config);
  util::Rng rng(11);
  tree.fit(d, ColumnRanks(d), all_indices(d), 2, rng);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(tree.predict(pts[i]), labels[i]);
  }
  EXPECT_GE(tree.depth(), 2);
}

}  // namespace
}  // namespace amperebleed::ml
