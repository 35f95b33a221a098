#pragma once
// Tabular dataset for the fingerprinting classifier: one row per side-channel
// trace, one column per (resampled) time step or derived feature.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace amperebleed::ml {

/// Dense row-major feature matrix with integer class labels.
/// Invariants: every row has the same width; labels.size() == rows; every
/// feature is finite. The last one is what lets tree training order a
/// column at all: a NaN breaks the strict weak ordering a sort needs, so
/// `add` rejects it at the door instead of leaving it to the splitter.
///
/// Tree training does not read the matrix column by column through the
/// Dataset: `RandomForest::fit` rank-codes it once into a ColumnRanks table
/// (below) and every node works on that.
class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(std::size_t feature_count) : feature_count_(feature_count) {}

  /// Append one sample. Throws std::invalid_argument on width mismatch, a
  /// negative label or a non-finite feature.
  void add(std::span<const double> features, int label);

  /// Pre-size the backing storage for `rows` samples (rows * feature_count
  /// doubles + labels), so bulk loaders like features::build_dataset append
  /// without reallocation.
  void reserve(std::size_t rows) {
    data_.reserve(rows * feature_count_);
    labels_.reserve(rows);
  }

  [[nodiscard]] std::size_t size() const { return labels_.size(); }
  [[nodiscard]] std::size_t feature_count() const { return feature_count_; }
  [[nodiscard]] bool empty() const { return labels_.empty(); }

  [[nodiscard]] std::span<const double> row(std::size_t i) const;

  /// Label of row `i`. Hot-loop accessor: bounds are a debug assertion, not
  /// a checked throw (`row()` keeps its range check for external callers).
  [[nodiscard]] int label(std::size_t i) const {
    assert(i < labels_.size() && "Dataset::label: index out of range");
    return labels_[i];
  }
  [[nodiscard]] const std::vector<int>& labels() const { return labels_; }

  /// Number of distinct classes = 1 + max(label). Labels must be >= 0.
  /// Memoized: maintained eagerly by add(), O(1) per call.
  [[nodiscard]] int class_count() const { return max_label_ + 1; }

  /// Dataset restricted to the first `prefix_features` columns (used to
  /// evaluate shorter trace durations without re-collecting traces).
  [[nodiscard]] Dataset truncated_features(std::size_t prefix_features) const;

  /// Subset of rows by index (for CV folds).
  [[nodiscard]] Dataset subset(std::span<const std::size_t> indices) const;

 private:
  std::size_t feature_count_ = 0;
  std::vector<double> data_;  // rows * feature_count_
  std::vector<int> labels_;
  int max_label_ = -1;  // memoized class_count() - 1
};

/// Rank coding of every column of a Dataset, built once per forest fit and
/// shared read-only by all of its trees.
///
/// Per column: the distinct values in strictly ascending order, and per row
/// the index of its value in that list (its rank), so
/// `values(f)[ranks(f)[r]] == data.row(r)[f]`. Equal doubles share a rank,
/// -0.0 and +0.0 included. The rank order is the value order, so a node can
/// order its rows by small integers instead of doubles; the doubles come
/// back only to form a split threshold.
class ColumnRanks {
 public:
  /// Throws std::length_error if the dataset has more rows than a u32 rank
  /// can number.
  explicit ColumnRanks(const Dataset& data);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t feature_count() const {
    return offsets_.size() - 1;
  }

  /// Rank of every row in column `f`, in row order.
  [[nodiscard]] std::span<const std::uint32_t> ranks(std::size_t f) const {
    assert(f < feature_count() && "ColumnRanks::ranks: column out of range");
    return {ranks_.data() + f * rows_, rows_};
  }
  /// Distinct values of column `f`, strictly ascending.
  [[nodiscard]] std::span<const double> values(std::size_t f) const {
    assert(f < feature_count() && "ColumnRanks::values: column out of range");
    return {values_.data() + offsets_[f], offsets_[f + 1] - offsets_[f]};
  }

 private:
  std::size_t rows_ = 0;
  std::vector<std::uint32_t> ranks_;    // column-major: [f * rows_ + r]
  std::vector<double> values_;          // every column's list, back to back
  std::vector<std::size_t> offsets_{0};  // column f: [offsets_[f], [f + 1])
};

}  // namespace amperebleed::ml
