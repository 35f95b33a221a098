#include "support/reference_forest.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace amperebleed::ml::reference {

namespace {

double gini(std::span<const std::size_t> counts, std::size_t total) {
  if (total == 0) return 0.0;
  double sum_sq = 0.0;
  for (const std::size_t c : counts) {
    const double p = static_cast<double>(c) / static_cast<double>(total);
    sum_sq += p * p;
  }
  return 1.0 - sum_sq;
}

class TreeGrower {
 public:
  TreeGrower(const TreeConfig& config, const Dataset& data, int class_count,
             util::Rng& rng, Tree& tree)
      : config_(config), data_(data), rng_(rng), tree_(tree) {
    tree_.class_count = class_count;
  }

  std::int32_t build(std::vector<std::size_t>& indices, std::size_t begin,
                     std::size_t end, int depth) {
    const std::size_t n = end - begin;
    const std::span<const std::size_t> here{indices.data() + begin, n};

    // Stop: depth limit, too few samples, or pure node.
    bool pure = true;
    for (std::size_t i = 1; i < n; ++i) {
      if (data_.label(here[i]) != data_.label(here[0])) {
        pure = false;
        break;
      }
    }
    if (pure || depth >= config_.max_depth || n < config_.min_samples_split) {
      return make_leaf(here, depth);
    }

    // Feature subsample: partial Fisher-Yates, k draws.
    const std::size_t total_features = data_.feature_count();
    std::size_t k = config_.max_features;
    if (k == 0) {
      k = static_cast<std::size_t>(
          std::lround(std::sqrt(static_cast<double>(total_features))));
      k = std::max<std::size_t>(k, 1);
    }
    k = std::min(k, total_features);
    std::vector<std::size_t> features(total_features);
    std::iota(features.begin(), features.end(), std::size_t{0});
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t j =
          i + static_cast<std::size_t>(rng_.uniform_below(total_features - i));
      std::swap(features[i], features[j]);
    }

    // Find the best (feature, threshold) by exhaustive sorted scan.
    double best_impurity = std::numeric_limits<double>::infinity();
    std::size_t best_feature = 0;
    double best_threshold = 0.0;
    const auto classes = static_cast<std::size_t>(tree_.class_count);
    std::vector<std::pair<double, int>> column(n);  // (value, label)
    std::vector<std::size_t> left_counts(classes);
    std::vector<std::size_t> right_counts(classes);

    for (std::size_t fi = 0; fi < k; ++fi) {
      const std::size_t f = features[fi];
      for (std::size_t i = 0; i < n; ++i) {
        column[i] = {data_.row(here[i])[f], data_.label(here[i])};
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
            (static_cast<double>(n_left) * gini(left_counts, n_left) +
             static_cast<double>(n_right) * gini(right_counts, n_right)) /
            static_cast<double>(n);
        if (impurity < best_impurity) {
          best_impurity = impurity;
          best_feature = f;
          best_threshold = 0.5 * (column[i].first + column[i + 1].first);
        }
      }
    }

    if (!std::isfinite(best_impurity)) {
      // Every sampled feature was constant on this node.
      return make_leaf(here, depth);
    }

    // Partition indices in place around the chosen split.
    const auto mid_it = std::partition(
        indices.begin() + static_cast<std::ptrdiff_t>(begin),
        indices.begin() + static_cast<std::ptrdiff_t>(end),
        [&](std::size_t i) {
          return data_.row(i)[best_feature] <= best_threshold;
        });
    const auto mid =
        static_cast<std::size_t>(std::distance(indices.begin(), mid_it));
    if (mid == begin || mid == end) {
      return make_leaf(here, depth);  // degenerate split
    }

    // Reserve our slot before recursing so child indices stay valid.
    Tree::Node node;
    node.feature = static_cast<std::int32_t>(best_feature);
    node.threshold = best_threshold;
    tree_.nodes.push_back(node);
    const auto my_index = static_cast<std::int32_t>(tree_.nodes.size() - 1);

    const std::int32_t left = build(indices, begin, mid, depth + 1);
    const std::int32_t right = build(indices, mid, end, depth + 1);
    tree_.nodes[static_cast<std::size_t>(my_index)].left = left;
    tree_.nodes[static_cast<std::size_t>(my_index)].right = right;
    return my_index;
  }

 private:
  std::int32_t make_leaf(std::span<const std::size_t> indices, int depth) {
    Tree::Node leaf;
    leaf.dist_offset = static_cast<std::int32_t>(tree_.leaf_dists.size());
    const auto classes = static_cast<std::size_t>(tree_.class_count);
    tree_.leaf_dists.resize(tree_.leaf_dists.size() + classes, 0.0);
    double* dist = tree_.leaf_dists.data() + leaf.dist_offset;
    for (std::size_t i : indices) {
      dist[static_cast<std::size_t>(data_.label(i))] += 1.0;
    }
    const double total = static_cast<double>(indices.size());
    for (std::size_t c = 0; c < classes; ++c) dist[c] /= total;
    tree_.nodes.push_back(leaf);
    tree_.depth = std::max(tree_.depth, depth);
    return static_cast<std::int32_t>(tree_.nodes.size() - 1);
  }

  const TreeConfig& config_;
  const Dataset& data_;
  util::Rng& rng_;
  Tree& tree_;
};

}  // namespace

std::span<const double> Tree::predict_proba(
    std::span<const double> features) const {
  if (nodes.empty()) throw std::logic_error("reference::Tree: not fitted");
  std::size_t i = 0;
  while (nodes[i].dist_offset < 0) {
    const Node& node = nodes[i];
    const double v = features[static_cast<std::size_t>(node.feature)];
    i = static_cast<std::size_t>(v <= node.threshold ? node.left : node.right);
  }
  return {leaf_dists.data() + nodes[i].dist_offset,
          static_cast<std::size_t>(class_count)};
}

void Tree::append_to(ForestArena& arena) const {
  const auto base = static_cast<std::int32_t>(arena.feature.size());
  const auto dist_base = static_cast<std::int32_t>(arena.dists.size());
  arena.roots.push_back(base);
  for (const Node& node : nodes) {
    if (node.dist_offset >= 0) {  // leaf
      arena.feature.push_back(ForestArena::kLeaf);
      arena.threshold.push_back(0.0);
      arena.right.push_back(dist_base + node.dist_offset);
    } else {
      arena.feature.push_back(node.feature);
      arena.threshold.push_back(node.threshold);
      arena.right.push_back(base + node.right);
    }
  }
  arena.dists.insert(arena.dists.end(), leaf_dists.begin(), leaf_dists.end());
}

Tree fit_tree(const TreeConfig& config, const Dataset& data,
              std::span<const std::size_t> sample_indices, int class_count,
              util::Rng& rng) {
  if (sample_indices.empty()) {
    throw std::invalid_argument("reference::fit_tree: no samples");
  }
  Tree tree;
  std::vector<std::size_t> indices(sample_indices.begin(),
                                   sample_indices.end());
  TreeGrower(config, data, class_count, rng, tree)
      .build(indices, 0, indices.size(), 0);
  return tree;
}

Forest::Forest(const ForestConfig& config, const Dataset& data)
    : class_count_(data.class_count()) {
  const util::Rng master(config.seed);
  const std::size_t n = data.size();
  trees_.reserve(config.n_trees);
  for (std::size_t t = 0; t < config.n_trees; ++t) {
    util::Rng tree_rng = master.fork(t);
    std::vector<std::size_t> indices(n);
    if (config.bootstrap) {
      for (auto& idx : indices) {
        idx = static_cast<std::size_t>(tree_rng.uniform_below(n));
      }
    } else {
      std::iota(indices.begin(), indices.end(), std::size_t{0});
    }
    trees_.push_back(fit_tree(config.tree, data, indices, class_count_,
                              tree_rng));
  }
}

std::vector<double> Forest::predict_proba(
    std::span<const double> features) const {
  std::vector<double> acc(static_cast<std::size_t>(class_count_), 0.0);
  for (const auto& tree : trees_) {
    const auto p = tree.predict_proba(features);
    for (std::size_t c = 0; c < acc.size(); ++c) acc[c] += p[c];
  }
  const double inv = 1.0 / static_cast<double>(trees_.size());
  for (double& v : acc) v *= inv;
  return acc;
}

ForestArena Forest::arena() const {
  ForestArena arena;
  arena.class_count = class_count_;
  for (const auto& tree : trees_) tree.append_to(arena);
  return arena;
}

}  // namespace amperebleed::ml::reference
