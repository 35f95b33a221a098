#pragma once
// CART decision tree with Gini impurity — the base learner of the paper's
// random forest (100 trees, max depth 32, Gini splitting, bootstrap).
//
// Two split-finding implementations share one tree representation:
//
//  * kPresorted (default) — the rank-key fast path. It works on the
//    ColumnRanks table the forest builds once per fit (dataset.hpp): for
//    each candidate feature a node packs every row's u32 rank and its
//    compact class id into one u64 key, and orders the keys with a counting
//    sort over the node's rank range when that range is small next to the
//    node, or with std::sort otherwise. Doubles come back only as the two
//    values a threshold is the midpoint of. Class counts are remapped to
//    the classes actually present in the node. The selected (feature,
//    threshold) — and therefore the fitted tree — is bit-identical to the
//    reference splitter (asserted by tests/ml/golden_split_test.cpp; the
//    argument is in decision_tree.cpp).
//  * kReference — the original materialize-and-sort splitter on (double,
//    label) pairs, retained as the golden oracle for bit-identity tests and
//    as the pre-optimization baseline for bench/micro_primitives.cpp's
//    BM_TreeFitReference. It ignores the rank table.

#include <cstdint>
#include <span>
#include <vector>

#include "amperebleed/ml/dataset.hpp"
#include "amperebleed/util/rng.hpp"

namespace amperebleed::ml {

struct ForestArena;

struct TreeConfig {
  int max_depth = 32;
  std::size_t min_samples_split = 2;
  /// Number of candidate features examined per split; 0 means
  /// round(sqrt(feature_count)) — the random-forest default.
  std::size_t max_features = 0;
  /// Split-finding algorithm; both select identical splits (see header
  /// comment). kReference exists for golden tests and A/B benchmarks.
  enum class Splitter { kPresorted, kReference };
  Splitter splitter = Splitter::kPresorted;
};

/// A fitted classification tree. Nodes are stored in a flat array in
/// preorder (an internal node's left child is the next node); leaves keep
/// the full class distribution so the forest can produce calibrated top-k
/// probabilities.
class DecisionTree {
 public:
  explicit DecisionTree(TreeConfig config = {}) : config_(config) {}

  /// Fit on `data` restricted to `sample_indices` (with repetitions allowed —
  /// this is how the forest passes bootstrap samples). `ranks` must be
  /// ColumnRanks(data); a forest builds it once and shares it across its
  /// trees. `class_count` fixes the width of leaf distributions; `rng`
  /// drives feature subsampling.
  void fit(const Dataset& data, const ColumnRanks& ranks,
           std::span<const std::size_t> sample_indices, int class_count,
           util::Rng& rng);

  /// Most probable class for a feature vector. Precondition: fitted.
  [[nodiscard]] int predict(std::span<const double> features) const;

  /// Class probability distribution at the leaf reached by `features`.
  [[nodiscard]] std::span<const double> predict_proba(
      std::span<const double> features) const;

  /// Append this fitted tree's nodes and leaf distributions to a flat SoA
  /// forest arena (see forest_arena.hpp). Node order and distributions are
  /// preserved verbatim.
  void append_to(ForestArena& arena) const;

  [[nodiscard]] bool fitted() const { return !nodes_.empty(); }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  /// Total doubles held by leaf distributions (class_count per leaf).
  [[nodiscard]] std::size_t leaf_value_count() const {
    return leaf_dists_.size();
  }
  /// Depth of the fitted tree. Cached at fit time (O(1)); 0 when unfitted.
  [[nodiscard]] int depth() const { return depth_; }
  [[nodiscard]] const TreeConfig& config() const { return config_; }

 private:
  struct Node {
    // Internal node: feature/threshold valid, children set.
    // Leaf: children == -1, `dist_offset` points into leaf_dists_.
    std::int32_t feature = -1;
    double threshold = 0.0;
    std::int32_t left = -1;
    std::int32_t right = -1;
    std::int32_t dist_offset = -1;
    std::int32_t node_depth = 0;
  };

  /// Per-tree reusable scratch arena of the presorted splitter: sized once
  /// per fit, reused by every node, no per-node allocations. Defined in
  /// decision_tree.cpp.
  struct FitScratch;

  // Reference (original) splitter.
  std::int32_t build_reference(const Dataset& data,
                               std::vector<std::size_t>& indices,
                               std::size_t begin, std::size_t end, int depth,
                               util::Rng& rng);
  std::int32_t make_leaf(const Dataset& data,
                         std::span<const std::size_t> indices, int depth);

  // Presorted rank-key splitter.
  std::int32_t build_presorted(const Dataset& data, const ColumnRanks& ranks,
                               FitScratch& scratch, std::size_t begin,
                               std::size_t end, int depth, util::Rng& rng);
  std::int32_t make_leaf_from_labels(std::span<const std::int32_t> labels,
                                     int depth);

  [[nodiscard]] std::size_t leaf_for(std::span<const double> features) const;

  TreeConfig config_;
  int class_count_ = 0;
  int depth_ = 0;  // cached max leaf depth, set during fit
  std::vector<Node> nodes_;
  std::vector<double> leaf_dists_;  // class_count_ doubles per leaf
};

}  // namespace amperebleed::ml
