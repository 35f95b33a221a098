#include "amperebleed/ml/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace amperebleed::ml {

void Dataset::add(std::span<const double> features, int label) {
  if (feature_count_ == 0 && labels_.empty()) {
    feature_count_ = features.size();
  }
  if (features.size() != feature_count_) {
    throw std::invalid_argument("Dataset::add: feature width mismatch");
  }
  if (label < 0) {
    throw std::invalid_argument("Dataset::add: labels must be >= 0");
  }
  for (const double v : features) {
    if (!std::isfinite(v)) {
      throw std::invalid_argument("Dataset::add: non-finite feature");
    }
  }
  data_.insert(data_.end(), features.begin(), features.end());
  labels_.push_back(label);
  max_label_ = std::max(max_label_, label);
}

std::span<const double> Dataset::row(std::size_t i) const {
  if (i >= labels_.size()) throw std::out_of_range("Dataset::row");
  return {data_.data() + i * feature_count_, feature_count_};
}

Dataset Dataset::truncated_features(std::size_t prefix_features) const {
  if (prefix_features > feature_count_) {
    throw std::invalid_argument("truncated_features: prefix too wide");
  }
  Dataset out(prefix_features);
  out.data_.reserve(size() * prefix_features);
  out.labels_.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) {
    out.add(row(i).subspan(0, prefix_features), labels_[i]);
  }
  return out;
}

Dataset Dataset::subset(std::span<const std::size_t> indices) const {
  Dataset out(feature_count_);
  out.data_.reserve(indices.size() * feature_count_);
  out.labels_.reserve(indices.size());
  for (std::size_t i : indices) out.add(row(i), label(i));
  return out;
}

ColumnRanks::ColumnRanks(const Dataset& data) : rows_(data.size()) {
  if (rows_ > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("ColumnRanks: too many rows for u32 ranks");
  }
  const std::size_t cols = data.feature_count();
  ranks_.resize(rows_ * cols);
  offsets_.reserve(cols + 1);
  // (value, row) pairs of one column, sorted by value. Ties may land in any
  // order: they share a rank, so the table does not depend on it.
  std::vector<std::pair<double, std::uint32_t>> order(rows_);
  for (std::size_t f = 0; f < cols; ++f) {
    for (std::size_t r = 0; r < rows_; ++r) {
      order[r] = {data.row(r)[f], static_cast<std::uint32_t>(r)};
    }
    std::sort(order.begin(), order.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::uint32_t* rank = ranks_.data() + f * rows_;
    const std::size_t base = values_.size();
    for (const auto& [value, r] : order) {
      if (values_.size() == base || value != values_.back()) {
        values_.push_back(value);
      }
      rank[r] = static_cast<std::uint32_t>(values_.size() - 1 - base);
    }
    offsets_.push_back(values_.size());
  }
}

}  // namespace amperebleed::ml
