#pragma once
// CART decision tree with Gini impurity — the base learner of the paper's
// random forest (100 trees, max depth 32, Gini splitting, bootstrap).
//
// Splits are found on the ColumnRanks table the forest builds once per fit
// (dataset.hpp): for each candidate feature a node packs every row's u32
// rank and its compact class id into one u64 key, and orders the keys with
// a counting sort over the node's rank range when that range is small next
// to the node, or with std::sort otherwise. Doubles come back only as the
// two values a threshold is the midpoint of. Class counts are remapped to
// the classes actually present in the node. The selected (feature,
// threshold), and therefore the fitted tree, is bit-identical to the
// original materialize-and-sort splitter on (double, label) pairs, which
// tests/support keeps as the oracle (asserted by
// tests/ml/golden_split_test.cpp; the argument is in decision_tree.cpp).
//
// A fitted tree is a one-tree ForestArena (forest_arena.hpp): fit_tree
// writes every node straight into the arena's preorder rows, the one node
// format of the library.

#include <span>

#include "amperebleed/ml/dataset.hpp"
#include "amperebleed/ml/forest_arena.hpp"
#include "amperebleed/util/rng.hpp"

namespace amperebleed::ml {

struct TreeConfig {
  int max_depth = 32;
  std::size_t min_samples_split = 2;
  /// Number of candidate features examined per split; 0 means
  /// round(sqrt(feature_count)) — the random-forest default.
  std::size_t max_features = 0;
};

/// Fit one classification tree on `data` restricted to `sample_indices`
/// (with repetitions allowed — this is how the forest passes bootstrap
/// samples) and return it as a one-tree arena whose class_count is
/// `class_count`. Leaves keep the full class distribution so the forest can
/// produce calibrated top-k probabilities. `ranks` must be
/// ColumnRanks(data); a forest builds it once and shares it across its
/// trees. `rng` drives feature subsampling. Throws std::invalid_argument on
/// no samples, a class_count <= 0 or a rank table of another dataset.
[[nodiscard]] ForestArena fit_tree(const TreeConfig& config,
                                   const Dataset& data,
                                   const ColumnRanks& ranks,
                                   std::span<const std::size_t> sample_indices,
                                   int class_count, util::Rng& rng);

}  // namespace amperebleed::ml
