#pragma once
// Random forest matching the paper's fingerprinting classifier: 100 trees,
// max depth 32, Gini impurity, bootstrap sampling with replacement.
//
// Training parallelizes across trees on the util::ThreadPool: every tree t
// derives its RNG from master.fork(t) and lands in a pre-sized slot, so the
// fitted forest is bit-identical at any thread count. Each slot holds a
// one-tree arena from fit_tree (decision_tree.hpp); after training the
// slots are appended in tree order into one flat SoA arena
// (forest_arena.hpp) spanning all trees, and dropped: the arena is the
// fitted forest's only state, the same state from_arena restores, and every
// predict* member walks it. A fitted forest is immutable; all predict*
// members are const and safe to call concurrently from many threads (the
// online service shares one forest across requests).

#include <span>
#include <vector>

#include "amperebleed/ml/dataset.hpp"
#include "amperebleed/ml/decision_tree.hpp"
#include "amperebleed/ml/forest_arena.hpp"
#include "amperebleed/util/rng.hpp"

namespace amperebleed::ml {

struct ForestConfig {
  std::size_t n_trees = 100;
  TreeConfig tree{};
  bool bootstrap = true;
  std::uint64_t seed = 0x5eed;
};

class RandomForest {
 public:
  /// Rows per block of the batched arena kernel in predict_proba_many: 16
  /// rows of a few hundred features (~tens of KB) fit L1/L2 alongside one
  /// tree's nodes, and a block is also the parallel_for work item — large
  /// enough to amortize scheduling, small enough to load-balance across the
  /// pool.
  static constexpr std::size_t kPredictRowBlock = 16;

  explicit RandomForest(ForestConfig config = {}) : config_(config) {}

  /// Fit on the full dataset. Throws on an empty dataset.
  void fit(const Dataset& data);

  /// Rebuild a forest from a persisted arena (persist/state.hpp): the
  /// result is the same state a fit leaves, so every predict path gives
  /// bit-identical probabilities. Throws std::invalid_argument on an empty
  /// arena.
  [[nodiscard]] static RandomForest from_arena(ForestConfig config,
                                               ForestArena arena);

  /// Most probable class (averaged leaf distributions).
  [[nodiscard]] int predict(std::span<const double> features) const;

  /// Averaged class distribution across trees (arena walk, tree order
  /// 0..T-1 — bit-identical to a per-tree pointer walk).
  [[nodiscard]] std::vector<double> predict_proba(
      std::span<const double> features) const;

  /// Batched inference: one averaged class distribution per input row, in
  /// input order. Rows are processed in cache-sized blocks through the SoA
  /// arena (trees stream once per block instead of once per row); blocks
  /// are evaluated in parallel on the thread pool, falling back to a serial
  /// loop when the pool has size 1 or the call is nested inside a parallel
  /// region. Bit-identical to calling predict_proba per row.
  [[nodiscard]] std::vector<std::vector<double>> predict_proba_many(
      std::span<const std::span<const double>> rows) const;

  /// The k most probable classes, most probable first (ties broken by
  /// smaller class id, matching the deterministic evaluation in benches).
  [[nodiscard]] std::vector<int> predict_top_k(std::span<const double> features,
                                               std::size_t k) const;

  /// True for a trained or arena-restored forest.
  [[nodiscard]] bool fitted() const { return !arena_.empty(); }
  [[nodiscard]] std::size_t tree_count() const { return arena_.tree_count(); }
  [[nodiscard]] const ForestConfig& config() const { return config_; }
  [[nodiscard]] int class_count() const { return arena_.class_count; }
  /// The packed SoA forest (valid once fitted).
  [[nodiscard]] const ForestArena& arena() const { return arena_; }

 private:
  ForestConfig config_;
  ForestArena arena_;
};

/// The k most probable classes of a probability vector, most probable first
/// (ties: smaller class id wins) — the ranking rule behind
/// RandomForest::predict_top_k, shared with the batched CV path. Uses a
/// partial sort over the first k ranks; the tie-break makes the comparator a
/// total order, so the output equals the former full stable_sort prefix.
[[nodiscard]] std::vector<int> top_k_from_proba(std::span<const double> proba,
                                                std::size_t k);

}  // namespace amperebleed::ml
