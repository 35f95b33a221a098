// AVX2 lockstep traversal kernel for ForestArena (DESIGN.md §14).
//
// Compiled for the baseline ISA with a per-function target("avx2")
// attribute, so the binary still runs on non-AVX2 x86 hosts —
// ForestArena::predict_proba_rows only calls it after a cpuid check. The
// kernel makes the exact same comparisons as the scalar walk
// (`row[f] <= threshold` with ordered semantics, so NaN always goes right),
// hence bit-identical probabilities to the scalar kernel.

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <cstdint>

#include "amperebleed/ml/forest_arena.hpp"

namespace amperebleed::ml {

namespace {

/// Compress the 64-bit lane masks of two compare results (lanes 0-3 and
/// 4-7) into one vector of eight 32-bit masks.
__attribute__((target("avx2"))) inline __m256i compress_masks(__m256d lo,
                                                              __m256d hi) {
  // Pick dwords 0,2,4,6 of each 64-bit mask pair (either dword works: a
  // compare mask is all-ones or all-zeros per lane).
  const __m256i pick = _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6);
  const __m256i lo32 = _mm256_permutevar8x32_epi32(_mm256_castpd_si256(lo), pick);
  const __m256i hi32 = _mm256_permutevar8x32_epi32(_mm256_castpd_si256(hi), pick);
  return _mm256_permute2x128_si256(lo32, hi32, 0x20);
}

}  // namespace

__attribute__((target("avx2"))) void ForestArena::walk_lockstep_avx2(
    std::size_t t, const double* rowblock, std::int32_t* leaf_idx) const {
  static_assert(kInterleaveLanes == 8,
                "AVX2 kernel walks exactly 8 int32 lanes");
  const std::int32_t* feat = feature.data();
  const double* thr = threshold.data();
  const std::int32_t* rgt = right.data();
  const __m256i lane_id = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i ones = _mm256_set1_epi32(1);
  const __m256i minus_one = _mm256_set1_epi32(-1);

  __m256i idx = _mm256_set1_epi32(roots[t]);
  for (;;) {
    const __m256i f = _mm256_i32gather_epi32(feat, idx, 4);
    // internal = f >= 0, i.e. f > -1 (leaves carry kLeaf == -1).
    const __m256i internal = _mm256_cmpgt_epi32(f, minus_one);
    if (_mm256_movemask_epi8(internal) == 0) break;

    // Leaf lanes read feature 0 / their (zeroed) threshold slot — valid
    // memory whose result the final select discards.
    const __m256i fs = _mm256_and_si256(f, internal);
    const __m256i off =
        _mm256_add_epi32(_mm256_slli_epi32(fs, 3), lane_id);
    const __m128i off_lo = _mm256_castsi256_si128(off);
    const __m128i off_hi = _mm256_extracti128_si256(off, 1);
    const __m128i idx_lo = _mm256_castsi256_si128(idx);
    const __m128i idx_hi = _mm256_extracti128_si256(idx, 1);

    // Masked form with an explicit zero source + all-ones mask: identical
    // to the plain gather but avoids GCC's _mm256_undefined_pd()
    // maybe-uninitialized warning.
    const __m256d zero = _mm256_setzero_pd();
    const __m256d full = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    const __m256d v_lo = _mm256_mask_i32gather_pd(zero, rowblock, off_lo, full, 8);
    const __m256d v_hi = _mm256_mask_i32gather_pd(zero, rowblock, off_hi, full, 8);
    const __m256d t_lo = _mm256_mask_i32gather_pd(zero, thr, idx_lo, full, 8);
    const __m256d t_hi = _mm256_mask_i32gather_pd(zero, thr, idx_hi, full, 8);

    // Ordered <=: NaN row values compare false, matching the scalar walk.
    const __m256d le_lo = _mm256_cmp_pd(v_lo, t_lo, _CMP_LE_OQ);
    const __m256d le_hi = _mm256_cmp_pd(v_hi, t_hi, _CMP_LE_OQ);
    const __m256i go_left = compress_masks(le_lo, le_hi);

    const __m256i right_child = _mm256_i32gather_epi32(rgt, idx, 4);
    const __m256i left_child = _mm256_add_epi32(idx, ones);
    const __m256i next =
        _mm256_blendv_epi8(right_child, left_child, go_left);
    // Lanes already at a leaf self-loop.
    idx = _mm256_blendv_epi8(idx, next, internal);
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(leaf_idx), idx);
}

}  // namespace amperebleed::ml

#endif  // x86
