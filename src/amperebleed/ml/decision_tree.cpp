#include "amperebleed/ml/decision_tree.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "amperebleed/ml/forest_arena.hpp"
#include "amperebleed/obs/obs.hpp"

namespace amperebleed::ml {

namespace {

// Gini impurity from class counts. Shared verbatim by both splitters: the
// bit-identity contract requires the exact same floating-point operations
// in the exact same order, because split selection compares these doubles
// with strict `<`. The reference counts in std::size_t, the presorted
// splitter in double: a count is a small integer, exact in either type, so
// static_cast<double>(c) yields the same double and every operation after
// it is the same — the double form just skips the u64 -> double conversion.
template <typename Count>
double gini(std::span<const Count> counts, std::size_t total) {
  if (total == 0) return 0.0;
  double sum_sq = 0.0;
  for (const Count c : counts) {
    const double p = static_cast<double>(c) / static_cast<double>(total);
    sum_sq += p * p;
  }
  return 1.0 - sum_sq;
}

struct BestSplit {
  double impurity = std::numeric_limits<double>::infinity();
  std::size_t feature = 0;
  double threshold = 0.0;
};

/// Feature subsample shared by both splitters: partial Fisher-Yates over
/// `features` (pre-filled with iota), drawing exactly k variates from `rng`.
/// Identical RNG consumption is part of the bit-identity contract.
std::size_t subsample_features(std::size_t total_features,
                               std::size_t max_features,
                               std::size_t* features, util::Rng& rng) {
  std::size_t k = max_features;
  if (k == 0) {
    k = static_cast<std::size_t>(
        std::lround(std::sqrt(static_cast<double>(total_features))));
    k = std::max<std::size_t>(k, 1);
  }
  k = std::min(k, total_features);
  std::iota(features, features + total_features, std::size_t{0});
  // Partial Fisher-Yates: first k entries are a uniform sample.
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.uniform_below(total_features - i));
    std::swap(features[i], features[j]);
  }
  return k;
}

}  // namespace

/// Reusable per-tree scratch arena: one allocation set per fit, shared by
/// every node of the tree (each buffer's lifetime ends before recursing, so
/// children can overwrite freely). Exposed as the ml.fit.scratch_bytes
/// gauge.
struct DecisionTree::FitScratch {
  std::vector<std::size_t> indices;        // working sample-index array
  std::vector<std::int32_t> node_labels;   // original labels of the node
  std::vector<std::int32_t> compact;       // node labels remapped to 0..m-1
  std::vector<std::uint64_t> keys;         // per-feature (rank, label) keys
  std::vector<std::uint32_t> bucket_end;   // counting sort: per-rank offsets
  std::vector<std::int32_t> by_rank;       // counting sort: labels by rank
  std::vector<std::size_t> features;       // Fisher-Yates candidate pool
  std::vector<std::int32_t> remap;         // class id -> compact id (or -1)
  std::vector<double> node_counts;         // per-compact-class node totals
  std::vector<double> left_counts;         // (exact small integers)
  std::vector<double> right_counts;

  void resize(std::size_t n, std::size_t rows, std::size_t feature_count,
              int class_count) {
    indices.resize(n);
    node_labels.resize(n);
    compact.resize(n);
    keys.resize(n);
    bucket_end.resize(rows);  // a node's rank range never exceeds the rows
    by_rank.resize(n);
    features.resize(feature_count);
    remap.resize(static_cast<std::size_t>(class_count));
    node_counts.resize(static_cast<std::size_t>(class_count));
    left_counts.resize(static_cast<std::size_t>(class_count));
    right_counts.resize(static_cast<std::size_t>(class_count));
  }

  [[nodiscard]] std::size_t bytes() const {
    return indices.capacity() * sizeof(std::size_t) +
           node_labels.capacity() * sizeof(std::int32_t) +
           compact.capacity() * sizeof(std::int32_t) +
           keys.capacity() * sizeof(std::uint64_t) +
           bucket_end.capacity() * sizeof(std::uint32_t) +
           by_rank.capacity() * sizeof(std::int32_t) +
           features.capacity() * sizeof(std::size_t) +
           remap.capacity() * sizeof(std::int32_t) +
           node_counts.capacity() * sizeof(double) +
           left_counts.capacity() * sizeof(double) +
           right_counts.capacity() * sizeof(double);
  }
};

void DecisionTree::fit(const Dataset& data, const ColumnRanks& ranks,
                       std::span<const std::size_t> sample_indices,
                       int class_count, util::Rng& rng) {
  if (sample_indices.empty()) {
    throw std::invalid_argument("DecisionTree::fit: no samples");
  }
  if (class_count <= 0) {
    throw std::invalid_argument("DecisionTree::fit: class_count must be > 0");
  }
  if (ranks.rows() != data.size() ||
      ranks.feature_count() != data.feature_count()) {
    throw std::invalid_argument(
        "DecisionTree::fit: rank table built from another dataset");
  }
  nodes_.clear();
  leaf_dists_.clear();
  class_count_ = class_count;
  depth_ = 0;

  if (config_.splitter == TreeConfig::Splitter::kReference) {
    std::vector<std::size_t> indices(sample_indices.begin(),
                                     sample_indices.end());
    build_reference(data, indices, 0, indices.size(), 0, rng);
    return;
  }

  const std::size_t n = sample_indices.size();
  nodes_.reserve(2 * n);  // a tree over n samples has < 2n nodes
  FitScratch scratch;
  scratch.resize(n, data.size(), data.feature_count(), class_count);
  std::copy(sample_indices.begin(), sample_indices.end(),
            scratch.indices.begin());
  build_presorted(data, ranks, scratch, 0, n, 0, rng);
  obs::gauge_set("ml.fit.scratch_bytes",
                 static_cast<double>(scratch.bytes()));
}

// ---------------------------------------------------------------------------
// Leaf construction. Both variants count labels into a fresh distribution
// slice and normalize by the sample count; counts are exact small integers
// in double, so the result is independent of accumulation order.

std::int32_t DecisionTree::make_leaf(const Dataset& data,
                                     std::span<const std::size_t> indices,
                                     int depth) {
  Node leaf;
  leaf.node_depth = depth;
  leaf.dist_offset = static_cast<std::int32_t>(leaf_dists_.size());
  leaf_dists_.resize(leaf_dists_.size() + static_cast<std::size_t>(class_count_),
                     0.0);
  for (std::size_t i : indices) {
    leaf_dists_[static_cast<std::size_t>(leaf.dist_offset) +
                static_cast<std::size_t>(data.label(i))] += 1.0;
  }
  const double total = static_cast<double>(indices.size());
  for (int c = 0; c < class_count_; ++c) {
    leaf_dists_[static_cast<std::size_t>(leaf.dist_offset) +
                static_cast<std::size_t>(c)] /= total;
  }
  nodes_.push_back(leaf);
  depth_ = std::max(depth_, depth);
  return static_cast<std::int32_t>(nodes_.size() - 1);
}

std::int32_t DecisionTree::make_leaf_from_labels(
    std::span<const std::int32_t> labels, int depth) {
  Node leaf;
  leaf.node_depth = depth;
  leaf.dist_offset = static_cast<std::int32_t>(leaf_dists_.size());
  leaf_dists_.resize(leaf_dists_.size() + static_cast<std::size_t>(class_count_),
                     0.0);
  double* dist = leaf_dists_.data() + leaf.dist_offset;
  for (std::int32_t l : labels) dist[l] += 1.0;
  const double total = static_cast<double>(labels.size());
  for (int c = 0; c < class_count_; ++c) dist[c] /= total;
  nodes_.push_back(leaf);
  depth_ = std::max(depth_, depth);
  return static_cast<std::int32_t>(nodes_.size() - 1);
}

// ---------------------------------------------------------------------------
// Reference splitter: the original per-node materialize-and-sort scan,
// retained as the golden oracle (tests/ml/golden_split_test.cpp) and the
// pre-optimization baseline (BM_TreeFitReference).

std::int32_t DecisionTree::build_reference(const Dataset& data,
                                           std::vector<std::size_t>& indices,
                                           std::size_t begin, std::size_t end,
                                           int depth, util::Rng& rng) {
  const std::size_t n = end - begin;
  const std::span<const std::size_t> here{indices.data() + begin, n};

  // Stop: depth limit, too few samples, or pure node.
  bool pure = true;
  for (std::size_t i = 1; i < n; ++i) {
    if (data.label(here[i]) != data.label(here[0])) {
      pure = false;
      break;
    }
  }
  if (pure || depth >= config_.max_depth || n < config_.min_samples_split) {
    return make_leaf(data, here, depth);
  }

  // Feature subsample.
  const std::size_t total_features = data.feature_count();
  std::vector<std::size_t> features(total_features);
  const std::size_t k =
      subsample_features(total_features, config_.max_features, features.data(),
                         rng);

  // Find the best (feature, threshold) by exhaustive sorted scan.
  BestSplit best;
  std::vector<std::pair<double, int>> column(n);  // (value, label)
  std::vector<std::size_t> left_counts(static_cast<std::size_t>(class_count_));
  std::vector<std::size_t> right_counts(static_cast<std::size_t>(class_count_));

  for (std::size_t fi = 0; fi < k; ++fi) {
    const std::size_t f = features[fi];
    for (std::size_t i = 0; i < n; ++i) {
      column[i] = {data.row(here[i])[f], data.label(here[i])};
    }
    std::sort(column.begin(), column.end());
    if (column.front().first == column.back().first) continue;  // constant

    std::fill(left_counts.begin(), left_counts.end(), 0);
    std::fill(right_counts.begin(), right_counts.end(), 0);
    for (const auto& [value, label] : column) {
      ++right_counts[static_cast<std::size_t>(label)];
    }
    std::size_t n_left = 0;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      const auto label = static_cast<std::size_t>(column[i].second);
      ++left_counts[label];
      --right_counts[label];
      ++n_left;
      if (column[i].first == column[i + 1].first) continue;  // not a boundary
      const std::size_t n_right = n - n_left;
      const double impurity =
          (static_cast<double>(n_left) *
               gini<std::size_t>(left_counts, n_left) +
           static_cast<double>(n_right) *
               gini<std::size_t>(right_counts, n_right)) /
          static_cast<double>(n);
      if (impurity < best.impurity) {
        best.impurity = impurity;
        best.feature = f;
        best.threshold = 0.5 * (column[i].first + column[i + 1].first);
      }
    }
  }

  if (!std::isfinite(best.impurity)) {
    // Every sampled feature was constant on this node.
    return make_leaf(data, here, depth);
  }

  // Partition indices in place around the chosen split.
  const auto mid_it = std::partition(
      indices.begin() + static_cast<std::ptrdiff_t>(begin),
      indices.begin() + static_cast<std::ptrdiff_t>(end),
      [&](std::size_t i) { return data.row(i)[best.feature] <= best.threshold; });
  const auto mid =
      static_cast<std::size_t>(std::distance(indices.begin(), mid_it));
  if (mid == begin || mid == end) {
    return make_leaf(data, here, depth);  // degenerate split
  }

  // Reserve our slot before recursing so child indices stay valid.
  Node node;
  node.feature = static_cast<std::int32_t>(best.feature);
  node.threshold = best.threshold;
  node.node_depth = depth;
  nodes_.push_back(node);
  const auto my_index = static_cast<std::int32_t>(nodes_.size() - 1);

  const std::int32_t left =
      build_reference(data, indices, begin, mid, depth + 1, rng);
  const std::int32_t right =
      build_reference(data, indices, mid, end, depth + 1, rng);
  nodes_[static_cast<std::size_t>(my_index)].left = left;
  nodes_[static_cast<std::size_t>(my_index)].right = right;
  return my_index;
}

// ---------------------------------------------------------------------------
// Presorted rank-key splitter. Same splits as build_reference, proved by
// four exact-equivalence arguments (each asserted by the golden tests):
//
//  1. Rank order is value order: ColumnRanks numbers a column's distinct
//     values in ascending order, so ordering a node's rows by rank orders
//     them by value, and a rank change is exactly a value change. The scan
//     visits the same boundaries in the same order, and the threshold
//     0.5 * (values[ra] + values[rb]) is the reference's midpoint of the
//     same two doubles (equal doubles share a rank; -0.0 and +0.0 give the
//     same sum with any nonzero neighbour).
//  2. Tie order: impurity is only evaluated at boundaries, where the
//     accumulated left/right class counts cover whole equal-value runs —
//     multiset properties, independent of how ties were ordered. So the
//     labels riding in the low word of a key (sort path), or the order of
//     rows inside a rank bucket (counting path), cannot change a count
//     vector at a boundary.
//  3. Compact class remap: classes absent from a node contribute p*p = +0.0
//     to the Gini sum, and sum_sq is always >= +0.0, so skipping them leaves
//     every partial sum bit-identical as long as the present classes are
//     visited in ascending class order — which the remap preserves.
//  4. Node-total counts: the reference's per-feature right_counts
//     initialization accumulates the node's label multiset, which is the
//     same integer vector for every feature; computing it once per node and
//     copying it is exact.
//
// The partition is exact too: a row goes left iff its value is
// <= threshold, i.e. iff its rank is below upper_bound(values, threshold).
// Testing `rank <= ra` instead would be wrong: the midpoint of two adjacent
// doubles can round up to values[rb], and a midpoint sum can overflow to
// +-inf.

namespace {

/// A key packs a row's rank (high word) above its compact node label (low
/// word). Ranks are u32 (ColumnRanks checks the row count) and labels are
/// non-negative ints, so u64 keys hold every Dataset the library accepts.
constexpr int kLabelBits = 32;

/// The counting sort replaces the comparison sort when the node's rank
/// range is at most this many times its row count: a counting pass costs
/// O(n + range), std::sort O(n log n). The bound keeps a small node of a
/// large dataset off an O(rows) bucket sweep; 16 measured best of
/// 2/8/16/32/unbounded on BM_TreeFit-shaped data at 468 to 15600 rows.
constexpr std::size_t kCountingRangePerRow = 16;

}  // namespace

std::int32_t DecisionTree::build_presorted(const Dataset& data,
                                           const ColumnRanks& ranks,
                                           FitScratch& scratch,
                                           std::size_t begin, std::size_t end,
                                           int depth, util::Rng& rng) {
  const std::size_t n = end - begin;
  const std::size_t* here = scratch.indices.data() + begin;
  const int* all_labels = data.labels().data();

  // Gather the node's labels once (reused by the purity check, the split
  // scan via the compact remap, and leaf construction).
  std::int32_t* node_labels = scratch.node_labels.data();
  for (std::size_t i = 0; i < n; ++i) {
    node_labels[i] = static_cast<std::int32_t>(all_labels[here[i]]);
  }

  bool pure = true;
  for (std::size_t i = 1; i < n; ++i) {
    if (node_labels[i] != node_labels[0]) {
      pure = false;
      break;
    }
  }
  if (pure || depth >= config_.max_depth || n < config_.min_samples_split) {
    return make_leaf_from_labels({node_labels, n}, depth);
  }

  // Compact class remap: compact ids are assigned in ascending class order
  // so Gini accumulation visits classes in the reference order.
  std::int32_t* remap = scratch.remap.data();
  std::fill(remap, remap + class_count_, std::int32_t{-1});
  for (std::size_t i = 0; i < n; ++i) remap[node_labels[i]] = 0;
  std::size_t m = 0;
  for (int c = 0; c < class_count_; ++c) {
    if (remap[c] == 0) remap[c] = static_cast<std::int32_t>(m++);
  }
  std::int32_t* compact = scratch.compact.data();
  double* node_counts = scratch.node_counts.data();
  std::fill(node_counts, node_counts + m, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    compact[i] = remap[node_labels[i]];
    ++node_counts[compact[i]];
  }

  const std::size_t total_features = data.feature_count();
  const std::size_t k =
      subsample_features(total_features, config_.max_features,
                         scratch.features.data(), rng);

  BestSplit best;
  std::uint64_t* keys = scratch.keys.data();
  double* left_counts = scratch.left_counts.data();
  double* right_counts = scratch.right_counts.data();

  for (std::size_t fi = 0; fi < k; ++fi) {
    const std::size_t f = scratch.features[fi];
    const std::uint32_t* rank = ranks.ranks(f).data();
    std::uint32_t lo = rank[here[0]];
    std::uint32_t hi = lo;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t r = rank[here[i]];
      keys[i] = (std::uint64_t{r} << kLabelBits) |
                static_cast<std::uint32_t>(compact[i]);
      lo = std::min(lo, r);
      hi = std::max(hi, r);
    }
    if (lo == hi) continue;  // constant on this node

    const double* values = ranks.values(f).data();
    std::fill(left_counts, left_counts + m, 0.0);
    std::copy(node_counts, node_counts + m, right_counts);
    // Scores the boundary between ranks ra < rb with the n_left rows of
    // rank <= ra already moved into left_counts.
    const auto score = [&](std::size_t n_left, std::uint32_t ra,
                           std::uint32_t rb) {
      const std::size_t n_right = n - n_left;
      const double impurity =
          (static_cast<double>(n_left) *
               gini<double>({left_counts, m}, n_left) +
           static_cast<double>(n_right) *
               gini<double>({right_counts, m}, n_right)) /
          static_cast<double>(n);
      if (impurity < best.impurity) {
        best.impurity = impurity;
        best.feature = f;
        best.threshold = 0.5 * (values[ra] + values[rb]);
      }
    };

    const std::size_t range = std::size_t{hi - lo} + 1;
    if (range <= kCountingRangePerRow * n) {
      // Counting sort over the node's rank range: bucket the compact labels
      // by rank, then walk the buckets in rank order.
      std::uint32_t* bucket_end = scratch.bucket_end.data();
      std::int32_t* by_rank = scratch.by_rank.data();
      std::fill(bucket_end, bucket_end + range, std::uint32_t{0});
      for (std::size_t i = 0; i < n; ++i) {
        ++bucket_end[(keys[i] >> kLabelBits) - lo];
      }
      std::uint32_t start = 0;
      for (std::size_t b = 0; b < range; ++b) {
        const std::uint32_t count = bucket_end[b];
        bucket_end[b] = start;
        start += count;
      }
      for (std::size_t i = 0; i < n; ++i) {
        by_rank[bucket_end[(keys[i] >> kLabelBits) - lo]++] = compact[i];
      }
      std::size_t i = 0;
      std::uint32_t prev = lo;
      for (std::size_t b = 0; b < range; ++b) {
        if (bucket_end[b] == i) continue;  // no row of this rank
        const auto r = static_cast<std::uint32_t>(lo + b);
        if (i > 0) score(i, prev, r);
        for (; i < bucket_end[b]; ++i) {
          ++left_counts[by_rank[i]];
          --right_counts[by_rank[i]];
        }
        prev = r;
      }
    } else {
      std::sort(keys, keys + n);
      for (std::size_t i = 0; i + 1 < n; ++i) {
        const auto label = static_cast<std::uint32_t>(keys[i]);
        ++left_counts[label];
        --right_counts[label];
        const auto ra = static_cast<std::uint32_t>(keys[i] >> kLabelBits);
        const auto rb = static_cast<std::uint32_t>(keys[i + 1] >> kLabelBits);
        if (ra != rb) score(i + 1, ra, rb);
      }
    }
  }

  if (!std::isfinite(best.impurity)) {
    // Every sampled feature was constant on this node.
    return make_leaf_from_labels({node_labels, n}, depth);
  }

  // Partition indices in place around the chosen split: ranks below
  // `left_ranks` hold exactly the values <= threshold.
  const std::span<const double> best_values = ranks.values(best.feature);
  const auto left_ranks = static_cast<std::uint32_t>(
      std::upper_bound(best_values.begin(), best_values.end(),
                       best.threshold) -
      best_values.begin());
  const std::uint32_t* best_rank = ranks.ranks(best.feature).data();
  const auto mid_it =
      std::partition(scratch.indices.begin() + static_cast<std::ptrdiff_t>(begin),
                     scratch.indices.begin() + static_cast<std::ptrdiff_t>(end),
                     [&](std::size_t i) { return best_rank[i] < left_ranks; });
  const auto mid =
      static_cast<std::size_t>(std::distance(scratch.indices.begin(), mid_it));
  if (mid == begin || mid == end) {
    // Degenerate split. The leaf distribution is a label multiset count, so
    // the partition's reordering of `indices` cannot change it.
    return make_leaf_from_labels({node_labels, n}, depth);
  }

  Node node;
  node.feature = static_cast<std::int32_t>(best.feature);
  node.threshold = best.threshold;
  node.node_depth = depth;
  nodes_.push_back(node);
  const auto my_index = static_cast<std::int32_t>(nodes_.size() - 1);

  const std::int32_t left =
      build_presorted(data, ranks, scratch, begin, mid, depth + 1, rng);
  const std::int32_t right =
      build_presorted(data, ranks, scratch, mid, end, depth + 1, rng);
  nodes_[static_cast<std::size_t>(my_index)].left = left;
  nodes_[static_cast<std::size_t>(my_index)].right = right;
  return my_index;
}

// ---------------------------------------------------------------------------

std::size_t DecisionTree::leaf_for(std::span<const double> features) const {
  if (nodes_.empty()) throw std::logic_error("DecisionTree: not fitted");
  std::size_t i = 0;
  while (nodes_[i].dist_offset < 0) {
    const Node& node = nodes_[i];
    const double v = features[static_cast<std::size_t>(node.feature)];
    i = static_cast<std::size_t>(v <= node.threshold ? node.left : node.right);
  }
  return i;
}

int DecisionTree::predict(std::span<const double> features) const {
  const auto proba = predict_proba(features);
  return static_cast<int>(std::distance(
      proba.begin(), std::max_element(proba.begin(), proba.end())));
}

std::span<const double> DecisionTree::predict_proba(
    std::span<const double> features) const {
  const Node& leaf = nodes_[leaf_for(features)];
  return {leaf_dists_.data() + leaf.dist_offset,
          static_cast<std::size_t>(class_count_)};
}

void DecisionTree::append_to(ForestArena& arena) const {
  if (nodes_.empty()) {
    throw std::logic_error("DecisionTree::append_to: not fitted");
  }
  const auto base = static_cast<std::int32_t>(arena.feature.size());
  const auto dist_base = static_cast<std::int32_t>(arena.dists.size());
  arena.roots.push_back(base);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Node& node = nodes_[i];
    if (node.dist_offset >= 0) {  // leaf
      arena.feature.push_back(ForestArena::kLeaf);
      arena.threshold.push_back(0.0);
      arena.right.push_back(dist_base + node.dist_offset);
    } else {
      // Preorder invariant: the left child immediately follows its parent.
      assert(node.left == static_cast<std::int32_t>(i) + 1);
      arena.feature.push_back(node.feature);
      arena.threshold.push_back(node.threshold);
      arena.right.push_back(base + node.right);
    }
  }
  arena.dists.insert(arena.dists.end(), leaf_dists_.begin(),
                     leaf_dists_.end());
}

}  // namespace amperebleed::ml
