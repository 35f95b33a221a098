#include "amperebleed/ml/random_forest.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "amperebleed/obs/obs.hpp"
#include "amperebleed/util/parallel.hpp"

namespace amperebleed::ml {

void RandomForest::fit(const Dataset& data) {
  if (data.empty()) throw std::invalid_argument("RandomForest::fit: empty data");
  if (config_.n_trees == 0) {
    throw std::invalid_argument("RandomForest::fit: n_trees must be > 0");
  }
  auto span = obs::span("ml.rf.fit", "ml");
  span.set_arg("trees", static_cast<double>(config_.n_trees));
  span.set_arg("samples", static_cast<double>(data.size()));

  class_count_ = data.class_count();
  trees_.clear();
  arena_.clear();

  const util::Rng master(config_.seed);
  const std::size_t n = data.size();
  const bool instrumented = obs::metrics_enabled();

  // Rank-code every column once, serially; the tree-parallel region below
  // shares the table read-only, and it is freed when this fit returns.
  const ColumnRanks ranks(data);

  // Trees are trained in parallel into pre-sized slots. Tree t's RNG is
  // master.fork(t) — a pure function of (seed, t) — and its bootstrap
  // indices are drawn from that private stream, so the fitted forest is
  // bit-identical at any pool size. All obs calls below are thread-safe
  // (atomic counters, mutex-guarded histograms/tracer).
  std::vector<DecisionTree> trees(config_.n_trees, DecisionTree(config_.tree));
  util::parallel_for(config_.n_trees, [&](std::size_t t) {
    // Per-tree span: nests under ml.rf.fit via the pool's context capture,
    // giving the flame graph its root;fit;tree breakdown.
    auto tree_span = obs::span("ml.tree_fit", "ml");
    tree_span.set_arg("tree", static_cast<double>(t));
    const std::int64_t t0 = instrumented ? obs::tracer().wall_now_ns() : 0;
    util::Rng tree_rng = master.fork(t);
    std::vector<std::size_t> indices(n);
    if (config_.bootstrap) {
      for (auto& idx : indices) {
        idx = static_cast<std::size_t>(tree_rng.uniform_below(n));
      }
    } else {
      std::iota(indices.begin(), indices.end(), std::size_t{0});
    }
    DecisionTree tree(config_.tree);
    tree.fit(data, ranks, indices, class_count_, tree_rng);
    trees[t] = std::move(tree);
    if (instrumented) {
      obs::count("ml.trees_fitted");
      obs::observe("ml.tree_fit_wall_ns",
                   static_cast<double>(obs::tracer().wall_now_ns() - t0));
    }
  });
  // Only publish on full success: a cancelled sweep leaves the forest
  // unfitted rather than holding a partially trained ensemble.
  trees_ = std::move(trees);

  // Pack the fitted trees into the flat SoA arena that all predict paths
  // walk. Packing preserves node order and copies leaf distributions
  // verbatim — the arena is a relayout, not a re-fit.
  arena_.class_count = class_count_;
  std::size_t total_nodes = 0;
  std::size_t total_dists = 0;
  for (const auto& tree : trees_) {
    total_nodes += tree.node_count();
    total_dists += tree.leaf_value_count();
  }
  arena_.feature.reserve(total_nodes);
  arena_.threshold.reserve(total_nodes);
  arena_.right.reserve(total_nodes);
  arena_.dists.reserve(total_dists);
  arena_.roots.reserve(trees_.size());
  for (const auto& tree : trees_) tree.append_to(arena_);
  obs::gauge_set("ml.forest.arena_bytes", static_cast<double>(arena_.bytes()));
}

RandomForest RandomForest::from_arena(ForestConfig config, ForestArena arena) {
  if (arena.empty()) {
    throw std::invalid_argument("RandomForest::from_arena: empty arena");
  }
  RandomForest forest(config);
  forest.class_count_ = arena.class_count;
  forest.arena_ = std::move(arena);
  obs::gauge_set("ml.forest.arena_bytes",
                 static_cast<double>(forest.arena_.bytes()));
  return forest;
}

std::vector<double> RandomForest::predict_proba(
    std::span<const double> features) const {
  if (!fitted()) throw std::logic_error("RandomForest: not fitted");
  std::vector<double> acc(static_cast<std::size_t>(class_count_), 0.0);
  arena_.accumulate(features.data(), acc.data());
  const double inv = 1.0 / static_cast<double>(arena_.tree_count());
  for (double& v : acc) v *= inv;
  return acc;
}

std::vector<double> RandomForest::predict_proba_reference(
    std::span<const double> features) const {
  if (!fitted()) throw std::logic_error("RandomForest: not fitted");
  if (trees_.empty()) {
    throw std::logic_error(
        "RandomForest: reference walk unavailable on an arena-restored "
        "forest (per-tree form is not persisted)");
  }
  std::vector<double> acc(static_cast<std::size_t>(class_count_), 0.0);
  for (const auto& tree : trees_) {
    const auto p = tree.predict_proba(features);
    for (std::size_t c = 0; c < acc.size(); ++c) acc[c] += p[c];
  }
  const double inv = 1.0 / static_cast<double>(trees_.size());
  for (double& v : acc) v *= inv;
  return acc;
}

std::vector<std::vector<double>> RandomForest::predict_proba_many(
    std::span<const std::span<const double>> rows) const {
  if (!fitted()) throw std::logic_error("RandomForest: not fitted");
  std::vector<std::vector<double>> out(rows.size());
  const std::size_t blocks =
      (rows.size() + kPredictRowBlock - 1) / kPredictRowBlock;
  util::parallel_for(blocks, [&](std::size_t b) {
    auto block_span = obs::span("ml.predict_block", "ml");
    const std::size_t lo = b * kPredictRowBlock;
    const std::size_t hi = std::min(lo + kPredictRowBlock, rows.size());
    block_span.set_arg("rows", static_cast<double>(hi - lo));
    arena_.predict_proba_rows(rows, lo, hi, out);
  });
  return out;
}

int RandomForest::predict(std::span<const double> features) const {
  const auto proba = predict_proba(features);
  return static_cast<int>(std::distance(
      proba.begin(), std::max_element(proba.begin(), proba.end())));
}

std::vector<int> RandomForest::predict_top_k(std::span<const double> features,
                                             std::size_t k) const {
  return top_k_from_proba(predict_proba(features), k);
}

std::vector<int> top_k_from_proba(std::span<const double> proba,
                                  std::size_t k) {
  std::vector<int> order(proba.size());
  std::iota(order.begin(), order.end(), 0);
  const std::size_t kk = std::min(k, order.size());
  // partial_sort over the first k ranks instead of a full stable_sort. The
  // comparator is a TOTAL order (probability desc, class id asc on ties),
  // so the prefix is unique — identical to the stable_sort's output, where
  // stability resolved ties toward the smaller (earlier-iota) class id.
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<std::ptrdiff_t>(kk),
                    order.end(), [&](int a, int b) {
                      const double pa = proba[static_cast<std::size_t>(a)];
                      const double pb = proba[static_cast<std::size_t>(b)];
                      if (pa != pb) return pa > pb;
                      return a < b;  // smaller class id wins the tie
                    });
  order.resize(kk);
  return order;
}

}  // namespace amperebleed::ml
