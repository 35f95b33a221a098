#include "amperebleed/ml/forest_arena.hpp"

#include <algorithm>

namespace amperebleed::ml {

namespace {

void zero_rows(std::vector<std::vector<double>>& out, std::size_t lo,
               std::size_t hi, std::size_t classes) {
  for (std::size_t r = lo; r < hi; ++r) out[r].assign(classes, 0.0);
}

void scale_rows(std::vector<std::vector<double>>& out, std::size_t lo,
                std::size_t hi, double inv) {
  for (std::size_t r = lo; r < hi; ++r) {
    for (double& v : out[r]) v *= inv;
  }
}

#if defined(__x86_64__) || defined(__i386__)

constexpr std::size_t kLanes = ForestArena::kInterleaveLanes;

/// Pack rows [lo, hi) into a feature-major lane-strided block:
/// block[(g * width + f) * kLanes + lane] = rows[lo + g*kLanes + lane][f].
/// Remainder lanes of the last group replicate the final row so the
/// fixed-width lockstep walker can always run kLanes lanes; the caller
/// only accumulates the real ones.
void pack_rowblock(std::span<const std::span<const double>> rows,
                   std::size_t lo, std::size_t hi, std::size_t width,
                   std::vector<double>& block) {
  const std::size_t groups = (hi - lo + kLanes - 1) / kLanes;
  block.resize(groups * width * kLanes);
  for (std::size_t g = 0; g < groups; ++g) {
    double* base = block.data() + g * width * kLanes;
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      const std::size_t r = std::min(lo + g * kLanes + lane, hi - 1);
      const double* src = rows[r].data();
      for (std::size_t f = 0; f < width; ++f) {
        base[f * kLanes + lane] = src[f];
      }
    }
  }
}

/// The one kernel choice in the library: the CPU, checked once per process.
bool host_has_avx2() {
  static const bool has_avx2 = __builtin_cpu_supports("avx2");
  return has_avx2;
}

#endif  // x86

}  // namespace

void ForestArena::clear() {
  feature.clear();
  threshold.clear();
  right.clear();
  dists.clear();
  roots.clear();
  class_count = 0;
}

void ForestArena::append(const ForestArena& other) {
  const auto base = static_cast<std::int32_t>(feature.size());
  const auto dist_base = static_cast<std::int32_t>(dists.size());
  for (const std::int32_t root : other.roots) roots.push_back(base + root);
  feature.insert(feature.end(), other.feature.begin(), other.feature.end());
  threshold.insert(threshold.end(), other.threshold.begin(),
                   other.threshold.end());
  for (std::size_t i = 0; i < other.node_count(); ++i) {
    right.push_back(other.right[i] +
                    (other.feature[i] == kLeaf ? dist_base : base));
  }
  dists.insert(dists.end(), other.dists.begin(), other.dists.end());
}

std::size_t ForestArena::bytes() const {
  return feature.capacity() * sizeof(std::int32_t) +
         threshold.capacity() * sizeof(double) +
         right.capacity() * sizeof(std::int32_t) +
         dists.capacity() * sizeof(double) +
         roots.capacity() * sizeof(std::int32_t);
}

void ForestArena::accumulate(const double* row, double* acc) const {
  const auto classes = static_cast<std::size_t>(class_count);
  for (std::size_t t = 0; t < roots.size(); ++t) {
    const double* d = leaf_dist(t, row);
    for (std::size_t c = 0; c < classes; ++c) acc[c] += d[c];
  }
}

void ForestArena::predict_proba_rows(
    std::span<const std::span<const double>> rows, std::size_t lo,
    std::size_t hi, std::vector<std::vector<double>>& out) const {
  if (lo >= hi) return;
#if defined(__x86_64__) || defined(__i386__)
  if (host_has_avx2()) {
    predict_proba_rows_avx2(rows, lo, hi, out);
    return;
  }
#endif
  predict_proba_rows_scalar(rows, lo, hi, out);
}

void ForestArena::predict_proba_rows_scalar(
    std::span<const std::span<const double>> rows, std::size_t lo,
    std::size_t hi, std::vector<std::vector<double>>& out) const {
  const auto classes = static_cast<std::size_t>(class_count);
  zero_rows(out, lo, hi, classes);
  // Trees outer, rows inner: one tree's nodes stay hot in L1 while every
  // row of the block walks it. Per row the trees are still visited in
  // ascending order, so the floating-point accumulation order — and hence
  // every probability bit — matches the row-at-a-time loop exactly.
  for (std::size_t t = 0; t < roots.size(); ++t) {
    for (std::size_t r = lo; r < hi; ++r) {
      const double* d = leaf_dist(t, rows[r].data());
      double* acc = out[r].data();
      for (std::size_t c = 0; c < classes; ++c) acc[c] += d[c];
    }
  }
  scale_rows(out, lo, hi, 1.0 / static_cast<double>(roots.size()));
}

#if defined(__x86_64__) || defined(__i386__)
void ForestArena::predict_proba_rows_avx2(
    std::span<const std::span<const double>> rows, std::size_t lo,
    std::size_t hi, std::vector<std::vector<double>>& out) const {
  // Trees outer, lane groups inner, like the scalar kernel: every row still
  // accumulates trees in order 0..T-1.
  const auto classes = static_cast<std::size_t>(class_count);
  zero_rows(out, lo, hi, classes);
  const std::size_t width = rows[lo].size();
  const std::size_t groups = (hi - lo + kLanes - 1) / kLanes;
  thread_local std::vector<double> block;
  pack_rowblock(rows, lo, hi, width, block);
  std::int32_t leaf_idx[kLanes];
  for (std::size_t t = 0; t < roots.size(); ++t) {
    for (std::size_t g = 0; g < groups; ++g) {
      walk_lockstep_avx2(t, block.data() + g * width * kLanes, leaf_idx);
      const std::size_t real = std::min(kLanes, hi - (lo + g * kLanes));
      for (std::size_t lane = 0; lane < real; ++lane) {
        const double* d = dists.data() + right[leaf_idx[lane]];
        double* acc = out[lo + g * kLanes + lane].data();
        for (std::size_t c = 0; c < classes; ++c) acc[c] += d[c];
      }
    }
  }
  scale_rows(out, lo, hi, 1.0 / static_cast<double>(roots.size()));
}
#endif

}  // namespace amperebleed::ml
