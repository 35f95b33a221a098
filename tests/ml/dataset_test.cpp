#include "amperebleed/ml/dataset.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

namespace amperebleed::ml {
namespace {

TEST(Dataset, AddAndAccess) {
  Dataset d(3);
  const std::vector<double> row0 = {1.0, 2.0, 3.0};
  const std::vector<double> row1 = {4.0, 5.0, 6.0};
  d.add(row0, 0);
  d.add(row1, 2);
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.feature_count(), 3u);
  EXPECT_DOUBLE_EQ(d.row(1)[2], 6.0);
  EXPECT_EQ(d.label(1), 2);
  EXPECT_EQ(d.class_count(), 3);
}

TEST(Dataset, InfersWidthFromFirstRow) {
  Dataset d;
  const std::vector<double> row = {1.0, 2.0};
  d.add(row, 0);
  EXPECT_EQ(d.feature_count(), 2u);
  const std::vector<double> bad = {1.0};
  EXPECT_THROW(d.add(bad, 0), std::invalid_argument);
}

TEST(Dataset, RejectsNegativeLabels) {
  Dataset d(1);
  const std::vector<double> row = {1.0};
  EXPECT_THROW(d.add(row, -1), std::invalid_argument);
}

TEST(Dataset, RowOutOfRangeThrows) {
  Dataset d(1);
  EXPECT_THROW(static_cast<void>(d.row(0)), std::out_of_range);
}

TEST(Dataset, TruncatedFeaturesKeepsPrefix) {
  Dataset d(4);
  const std::vector<double> row = {1.0, 2.0, 3.0, 4.0};
  d.add(row, 1);
  const Dataset t = d.truncated_features(2);
  EXPECT_EQ(t.feature_count(), 2u);
  EXPECT_DOUBLE_EQ(t.row(0)[1], 2.0);
  EXPECT_EQ(t.label(0), 1);
  EXPECT_THROW(d.truncated_features(5), std::invalid_argument);
}

TEST(Dataset, SubsetSelectsRows) {
  Dataset d(1);
  for (int i = 0; i < 5; ++i) {
    const std::vector<double> row = {static_cast<double>(i)};
    d.add(row, i % 2);
  }
  const std::vector<std::size_t> idx = {4, 0, 2};
  const Dataset s = d.subset(idx);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s.row(0)[0], 4.0);
  EXPECT_DOUBLE_EQ(s.row(1)[0], 0.0);
  EXPECT_EQ(s.label(2), 0);
}

TEST(Dataset, ClassCountOnEmpty) {
  Dataset d(1);
  EXPECT_EQ(d.class_count(), 0);
  EXPECT_TRUE(d.empty());
}

TEST(Dataset, ClassCountMemoTracksEveryAdd) {
  Dataset d(1);
  const std::vector<double> row = {0.0};
  d.add(row, 4);
  EXPECT_EQ(d.class_count(), 5);
  d.add(row, 1);  // smaller label must not shrink the count
  EXPECT_EQ(d.class_count(), 5);
  d.add(row, 9);
  EXPECT_EQ(d.class_count(), 10);
  // Derived datasets recompute their own memo from the rows they keep.
  const std::vector<std::size_t> idx = {1};  // only the label-1 row
  EXPECT_EQ(d.subset(idx).class_count(), 2);
  EXPECT_EQ(d.truncated_features(1).class_count(), 10);
}

Dataset counting_dataset(std::size_t rows, std::size_t features) {
  Dataset d(features);
  std::vector<double> row(features);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t f = 0; f < features; ++f) {
      row[f] = static_cast<double>(r * 100 + f);
    }
    d.add(row, static_cast<int>(r % 3));
  }
  return d;
}

TEST(Dataset, RejectsNonFiniteFeatures) {
  Dataset d = counting_dataset(3, 3);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    const std::vector<double> row = {1.0, bad, 2.0};
    EXPECT_THROW(d.add(row, 4), std::invalid_argument) << bad;
  }
  // A rejected row leaves no trace: no row, no label, no class.
  EXPECT_EQ(d.size(), 3u);
  EXPECT_EQ(d.class_count(), 3);
}

TEST(Dataset, MoveKeepsRowsAndMemo) {
  Dataset d = counting_dataset(6, 3);
  const double expect = d.row(5)[2];
  Dataset moved(std::move(d));
  EXPECT_EQ(moved.size(), 6u);
  EXPECT_EQ(moved.class_count(), 3);
  EXPECT_EQ(moved.row(5)[2], expect);
  Dataset target(3);
  target = std::move(moved);
  EXPECT_EQ(target.size(), 6u);
  EXPECT_EQ(target.class_count(), 3);
  EXPECT_EQ(target.row(5)[2], expect);
}

/// Columns with duplicates, a constant column, fractions and signed zeros.
Dataset tie_heavy_dataset() {
  Dataset d(4);
  const std::vector<std::vector<double>> rows = {
      {3.0, 7.0, 0.5, -0.0}, {1.0, 7.0, 2.5, 0.0},  {3.0, 7.0, -1.5, 1.0},
      {2.0, 7.0, 0.5, -0.0}, {1.0, 7.0, 2.5, -2.0}, {3.0, 7.0, 0.5, 0.0}};
  for (std::size_t r = 0; r < rows.size(); ++r) {
    d.add(rows[r], static_cast<int>(r % 2));
  }
  return d;
}

TEST(ColumnRanks, ValueAtRankIsTheCell) {
  for (const Dataset& d : {counting_dataset(7, 5), tie_heavy_dataset()}) {
    const ColumnRanks ranks(d);
    ASSERT_EQ(ranks.rows(), d.size());
    ASSERT_EQ(ranks.feature_count(), d.feature_count());
    for (std::size_t f = 0; f < d.feature_count(); ++f) {
      const auto rank = ranks.ranks(f);
      const auto values = ranks.values(f);
      ASSERT_EQ(rank.size(), d.size());
      for (std::size_t r = 0; r < d.size(); ++r) {
        ASSERT_LT(rank[r], values.size());
        EXPECT_EQ(values[rank[r]], d.row(r)[f]) << "r=" << r << " f=" << f;
      }
    }
  }
}

TEST(ColumnRanks, ValuesStrictlyAscending) {
  const Dataset d = tie_heavy_dataset();
  const ColumnRanks ranks(d);
  const std::vector<std::size_t> distinct = {3, 1, 3, 3};
  for (std::size_t f = 0; f < d.feature_count(); ++f) {
    const auto values = ranks.values(f);
    EXPECT_EQ(values.size(), distinct[f]) << "f=" << f;
    for (std::size_t i = 1; i < values.size(); ++i) {
      EXPECT_LT(values[i - 1], values[i]) << "f=" << f << " i=" << i;
    }
  }
}

TEST(ColumnRanks, EqualDoublesShareARankSignedZerosIncluded) {
  const Dataset d = tie_heavy_dataset();
  const ColumnRanks ranks(d);
  for (std::size_t f = 0; f < d.feature_count(); ++f) {
    const auto rank = ranks.ranks(f);
    for (std::size_t a = 0; a < d.size(); ++a) {
      for (std::size_t b = 0; b < d.size(); ++b) {
        EXPECT_EQ(rank[a] == rank[b], d.row(a)[f] == d.row(b)[f])
            << "f=" << f << " rows " << a << "," << b;
        EXPECT_EQ(rank[a] < rank[b], d.row(a)[f] < d.row(b)[f]);
      }
    }
  }
  // Column 3 holds -0.0 and +0.0: one rank, between -2.0 and 1.0.
  const auto zeros = ranks.ranks(3);
  EXPECT_EQ(zeros[0], 1u);
  EXPECT_EQ(zeros[1], 1u);
  EXPECT_EQ(zeros[5], 1u);
}

TEST(ColumnRanks, EmptyDatasetHasEmptyColumns) {
  const ColumnRanks ranks{Dataset(3)};
  EXPECT_EQ(ranks.rows(), 0u);
  EXPECT_EQ(ranks.feature_count(), 3u);
  EXPECT_TRUE(ranks.values(2).empty());
}

}  // namespace
}  // namespace amperebleed::ml
