#pragma once
// Reference random forest: the original materialize-and-sort splitter and
// the per-tree pointer walk. Golden tests pit the product fit (fit_tree's
// rank-key splitter, RandomForest's parallel fit) and both ForestArena
// kernels against it, and bench/micro_primitives times it as the slow side
// of its tree-fit and batch-predict ratios.
//
// A reference Tree keeps its own node array with explicit child links, in
// the preorder fit_tree writes its arena rows in (an internal node's left
// child is the next node), and append_to packs it into ForestArena rows, so
// a golden test can diff whole arenas.

#include <cstdint>
#include <span>
#include <vector>

#include "amperebleed/ml/dataset.hpp"
#include "amperebleed/ml/decision_tree.hpp"
#include "amperebleed/ml/forest_arena.hpp"
#include "amperebleed/ml/random_forest.hpp"
#include "amperebleed/util/rng.hpp"

namespace amperebleed::ml::reference {

struct Tree {
  struct Node {
    // Internal node: feature/threshold valid, children set.
    // Leaf: children == -1, `dist_offset` points into leaf_dists.
    std::int32_t feature = -1;
    double threshold = 0.0;
    std::int32_t left = -1;
    std::int32_t right = -1;
    std::int32_t dist_offset = -1;
  };

  int class_count = 0;
  int depth = 0;  // max leaf depth
  std::vector<Node> nodes;
  std::vector<double> leaf_dists;  // class_count doubles per leaf

  [[nodiscard]] std::size_t node_count() const { return nodes.size(); }

  /// Class distribution at the leaf `features` reaches (pointer walk).
  [[nodiscard]] std::span<const double> predict_proba(
      std::span<const double> features) const;

  /// Append this tree to a packed arena: the layout fit_tree writes.
  void append_to(ForestArena& arena) const;
};

/// The original splitter: at every node, for each sampled feature,
/// materialize (value, label) pairs, sort them and scan the boundaries.
/// Draws from `rng` exactly as ml::fit_tree does, so the same inputs
/// give the same tree.
Tree fit_tree(const TreeConfig& config, const Dataset& data,
              std::span<const std::size_t> sample_indices, int class_count,
              util::Rng& rng);

/// A forest of reference trees. The constructor replays RandomForest::fit's
/// draws serially: tree t's stream is Rng(config.seed).fork(t), which first
/// draws n bootstrap indices with uniform_below(n) (iota when bootstrap is
/// off) and then drives fit_tree.
class Forest {
 public:
  Forest(const ForestConfig& config, const Dataset& data);

  /// Averaged class distribution: each tree's pointer walk, summed in tree
  /// order, times 1/T.
  [[nodiscard]] std::vector<double> predict_proba(
      std::span<const double> features) const;

  /// The trees packed in order, as RandomForest::fit packs its own.
  [[nodiscard]] ForestArena arena() const;

  [[nodiscard]] std::size_t tree_count() const { return trees_.size(); }

 private:
  int class_count_ = 0;
  std::vector<Tree> trees_;
};

}  // namespace amperebleed::ml::reference
