#pragma once
// Flat SoA (structure-of-arrays) arena for a fitted random forest.
//
// Nodes are stored in preorder (every internal node's left child is the
// next node), so a whole forest packs into four parallel arrays spanning all
// trees. fit_tree (decision_tree.hpp) writes one tree straight into these
// rows, and append() concatenates trees into a forest:
//
//     feature[i]    int32    >= 0: split feature of internal node i
//                            == kLeaf (-1): node i is a leaf
//     threshold[i]  double   split threshold (internal nodes only)
//     right[i]      int32    internal: ABSOLUTE arena index of the right
//                            child (left child is implicitly i + 1)
//                            leaf: offset of its class distribution in dists
//     dists[]       double   class_count doubles per leaf, all trees
//
// Traversal of one row touches 16 bytes of hot metadata per visited node,
// every tree of the forest lives in ONE allocation, and the rows-outer
// cache-blocked batch kernel (`predict_proba_rows`) streams the whole arena
// once per block of rows instead of once per row.
//
// Batch traversal has exactly two kernels (DESIGN.md §14). The scalar one
// walks one row at a time with a data-dependent branch; the AVX2 one walks
// kInterleaveLanes rows per tree in lockstep with gather/blend selects over
// a feature-major packed row block. predict_proba_rows takes AVX2 when the
// CPU has it (checked once per process) and scalar otherwise; nothing else
// steers the choice. Traversal is pure comparisons and the per-row
// accumulation order (trees ascending, classes ascending) never changes, so
// both kernels are bit-identical to a per-tree pointer walk by construction
// — enforced by tests/ml/simd_dispatch_test.cpp's exact-equality checks
// against the reference forest in tests/support.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace amperebleed::ml {

struct ForestArena {
  static constexpr std::int32_t kLeaf = -1;
  /// Rows walked in lockstep per tree by the AVX2 kernel. The packed row
  /// block is laid out with this stride (block[f * kInterleaveLanes + lane]).
  static constexpr std::size_t kInterleaveLanes = 8;

  std::vector<std::int32_t> feature;   // kLeaf marks leaves
  std::vector<double> threshold;       // valid for internal nodes
  std::vector<std::int32_t> right;     // right-child index | dist offset
  std::vector<double> dists;           // class_count doubles per leaf
  std::vector<std::int32_t> roots;     // arena index of each tree's root
  int class_count = 0;

  void clear();
  /// Append every tree of `other` (same class_count) after this arena's
  /// trees, rebasing its roots, right-child indices and leaf offsets; node
  /// order and leaf distributions are copied verbatim. RandomForest::fit
  /// packs its one-tree fit_tree arenas this way.
  void append(const ForestArena& other);
  [[nodiscard]] bool empty() const { return roots.empty(); }
  [[nodiscard]] std::size_t tree_count() const { return roots.size(); }
  [[nodiscard]] std::size_t node_count() const { return feature.size(); }
  /// Total heap footprint of the packed arrays (the ml.forest.arena_bytes
  /// obs gauge).
  [[nodiscard]] std::size_t bytes() const;

  /// Leaf class distribution (class_count doubles) reached by `row` in tree
  /// `t`. `row` must span at least the max feature index + 1.
  [[nodiscard]] const double* leaf_dist(std::size_t t, const double* row) const {
    const std::int32_t* feat = feature.data();
    const double* thr = threshold.data();
    const std::int32_t* rgt = right.data();
    std::int32_t i = roots[t];
    while (feat[i] >= 0) {
      i = row[feat[i]] <= thr[i] ? i + 1 : rgt[i];
    }
    return dists.data() + rgt[i];
  }

  /// Sum the leaf distributions of every tree (in tree order 0..T-1) into
  /// `acc` (class_count doubles, caller-zeroed) — the same accumulation
  /// order as the naive per-tree loop, hence bit-identical sums.
  void accumulate(const double* row, double* acc) const;

  /// Rows-outer, cache-blocked batch kernel: averages the per-tree leaf
  /// distributions of rows [lo, hi) into out[lo..hi). Within the block the
  /// tree loop is outer, so each tree's nodes stay cache-hot across the
  /// whole block while every row still accumulates trees in order 0..T-1.
  /// Runs the AVX2 kernel when the CPU has it, else the scalar one; both
  /// are bit-identical.
  void predict_proba_rows(std::span<const std::span<const double>> rows,
                          std::size_t lo, std::size_t hi,
                          std::vector<std::vector<double>>& out) const;

  // -- The two kernels (public so tests and micro benches can call each
  //    one directly; prefer predict_proba_rows). Both share the contract
  //    of predict_proba_rows.
  void predict_proba_rows_scalar(std::span<const std::span<const double>> rows,
                                 std::size_t lo, std::size_t hi,
                                 std::vector<std::vector<double>>& out) const;

#if defined(__x86_64__) || defined(__i386__)
  /// AVX2 gather/blend lockstep kernel. Only call when the CPU has AVX2
  /// (__builtin_cpu_supports("avx2")).
  void predict_proba_rows_avx2(std::span<const std::span<const double>> rows,
                               std::size_t lo, std::size_t hi,
                               std::vector<std::vector<double>>& out) const;

  /// Walk kInterleaveLanes rows (feature-major packed `rowblock`) through
  /// tree `t` in lockstep with AVX2 gathers; writes the reached leaf node
  /// index per lane. Implementation detail of predict_proba_rows_avx2,
  /// compiled with target("avx2") in forest_arena_simd.cpp.
  void walk_lockstep_avx2(std::size_t t, const double* rowblock,
                          std::int32_t* leaf_idx) const;
#endif
};

}  // namespace amperebleed::ml
