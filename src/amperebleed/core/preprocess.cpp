#include "amperebleed/core/preprocess.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "amperebleed/core/trace.hpp"
#include "amperebleed/obs/obs.hpp"
#include "amperebleed/obs/quality.hpp"

namespace amperebleed::core {

std::string_view gap_policy_name(GapPolicy p) {
  static_assert(kGapPolicyCount == 3,
                "new GapPolicy: add a case below and extend kAllGapPolicies");
  switch (p) {
    case GapPolicy::HoldLast:
      return "hold-last";
    case GapPolicy::LinearInterpolate:
      return "linear-interpolate";
    case GapPolicy::Drop:
      return "drop";
  }
  return "unknown";
}

std::optional<GapPolicy> gap_policy_from_name(std::string_view name) {
  for (GapPolicy p : kAllGapPolicies) {
    if (gap_policy_name(p) == name) return p;
  }
  return std::nullopt;
}

std::vector<double> fill_gaps(std::span<const double> values,
                              std::span<const std::uint8_t> validity,
                              GapPolicy policy) {
  if (validity.empty()) return {values.begin(), values.end()};
  if (validity.size() != values.size()) {
    throw std::invalid_argument("fill_gaps: validity/values length mismatch");
  }
  if (obs::quality_enabled()) {
    const auto filled = static_cast<std::size_t>(
        std::count(validity.begin(), validity.end(), std::uint8_t{0}));
    if (filled > 0) {
      obs::quality_hub().data_quality().note_gap_fill(filled);
      obs::count("quality.preprocess.gaps_filled",
                 static_cast<std::uint64_t>(filled));
    }
  }

  if (policy == GapPolicy::Drop) {
    std::vector<double> out;
    out.reserve(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (validity[i] != 0) out.push_back(values[i]);
    }
    return out;
  }

  std::vector<double> out(values.begin(), values.end());
  // First valid index, for leading-gap backfill; npos when fully invalid.
  std::size_t first_valid = values.size();
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (validity[i] != 0) {
      first_valid = i;
      break;
    }
  }
  if (first_valid == values.size()) {
    // Nothing real to reconstruct from: zeros (the push_gap placeholder).
    std::fill(out.begin(), out.end(), 0.0);
    return out;
  }

  if (policy == GapPolicy::HoldLast) {
    for (std::size_t i = 0; i < first_valid; ++i) out[i] = out[first_valid];
    double last = out[first_valid];
    for (std::size_t i = first_valid; i < out.size(); ++i) {
      if (validity[i] != 0) {
        last = out[i];
      } else {
        out[i] = last;
      }
    }
    return out;
  }

  // LinearInterpolate: for every maximal run of gaps, connect the valid
  // neighbours with a straight line; edge runs clamp to the nearest valid.
  for (std::size_t i = 0; i < first_valid; ++i) out[i] = out[first_valid];
  std::size_t prev_valid = first_valid;
  std::size_t i = first_valid + 1;
  while (i < out.size()) {
    if (validity[i] != 0) {
      prev_valid = i;
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < out.size() && validity[j] == 0) ++j;
    if (j == out.size()) {
      // Trailing run: clamp to the last valid sample.
      for (std::size_t k = i; k < j; ++k) out[k] = out[prev_valid];
    } else {
      const double lo = out[prev_valid];
      const double hi = out[j];
      const double span_len = static_cast<double>(j - prev_valid);
      for (std::size_t k = i; k < j; ++k) {
        const double frac = static_cast<double>(k - prev_valid) / span_len;
        out[k] = lo * (1.0 - frac) + hi * frac;
      }
    }
    i = j;
  }
  return out;
}

std::vector<double> fill_gaps(const Trace& trace, GapPolicy policy) {
  // Gapless fast path: no validity mask was ever materialized, so skip the
  // policy dispatch / quality bookkeeping entirely and copy the samples
  // straight out.
  const auto values = trace.values();
  if (trace.validity().empty()) return {values.begin(), values.end()};
  return fill_gaps(values, trace.validity(), policy);
}

void detrend(std::vector<double>& xs) {
  if (xs.size() < 2) return;
  // Inline least-squares fit against t[i] = i, accumulated in exactly the
  // order stats::linear_fit uses — same slope/intercept bits — without
  // materializing the iota vector or paying linear_fit's r^2 pass.
  const auto n = static_cast<double>(xs.size());
  double mx = 0.0;
  double my = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    mx += static_cast<double>(i);
    my += xs[i];
  }
  mx /= n;
  my /= n;
  double sxy = 0.0;
  double sxx = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = static_cast<double>(i) - mx;
    const double dy = xs[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
  }
  double slope = 0.0;
  double intercept = my;
  if (sxx != 0.0) {
    slope = sxy / sxx;
    intercept = my - slope * mx;
  }
  // Deliberately unfused mul+add: the original detrend compiled this shape
  // for baseline x86-64, where no FMA contraction is possible. A fused
  // trend value differs by an ulp, and the subtraction below cancels —
  // amplifying that ulp into the residual. Keeping two roundings is what
  // keeps this bit-identical to core::reference::detrend.
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] -= slope * static_cast<double>(i) + intercept;
  }
}

std::vector<double> resample(std::span<const double> xs,
                             std::size_t target_len) {
  if (xs.empty()) throw std::invalid_argument("resample: empty input");
  if (target_len == 0) throw std::invalid_argument("resample: zero target");
  std::vector<double> out(target_len);
  if (xs.size() == 1 || target_len == 1) {
    std::fill(out.begin(), out.end(), xs[0]);
    return out;
  }
  const double scale = static_cast<double>(xs.size() - 1) /
                       static_cast<double>(target_len - 1);
  for (std::size_t i = 0; i < target_len; ++i) {
    const double pos = static_cast<double>(i) * scale;
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    out[i] = xs[lo] * (1.0 - frac) + xs[hi] * frac;
  }
  return out;
}

std::vector<double> deduplicate_runs(std::span<const double> xs) {
  std::vector<double> out;
  out.reserve(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i == 0 || xs[i] != xs[i - 1]) out.push_back(xs[i]);
  }
  return out;
}

int best_alignment_shift(std::span<const double> reference,
                         std::span<const double> probe,
                         std::size_t max_shift) {
  if (reference.size() < 4 || probe.size() < 4) return 0;
  const auto overlap_corr = [&](int lag) -> double {
    // Overlap of probe[i] with reference[i - lag]: a positive result means
    // the probe is the reference delayed by `lag` samples, i.e.
    // shift(reference, lag) ~ probe. The overlap is a contiguous index
    // range, so the Pearson accumulation runs straight over both spans —
    // same pairs in the same order as extracting them into temporaries and
    // calling stats::pearson, with zero allocations and vectorizable loops.
    const std::int64_t i0 = std::max<std::int64_t>(0, lag);
    const std::int64_t i1 =
        std::min<std::int64_t>(static_cast<std::int64_t>(probe.size()),
                               static_cast<std::int64_t>(reference.size()) + lag);
    if (i1 - i0 < 4) return -2.0;
    const auto n = static_cast<double>(i1 - i0);
    double mx = 0.0;
    double my = 0.0;
    for (std::int64_t i = i0; i < i1; ++i) {
      mx += reference[static_cast<std::size_t>(i - lag)];
      my += probe[static_cast<std::size_t>(i)];
    }
    mx /= n;
    my /= n;
    double sxy = 0.0;
    double sxx = 0.0;
    double syy = 0.0;
    for (std::int64_t i = i0; i < i1; ++i) {
      const double dx = reference[static_cast<std::size_t>(i - lag)] - mx;
      const double dy = probe[static_cast<std::size_t>(i)] - my;
      sxy += dx * dy;
      sxx += dx * dx;
      syy += dy * dy;
    }
    if (sxx == 0.0 || syy == 0.0) return 0.0;
    return sxy / std::sqrt(sxx * syy);
  };
  int best_lag = 0;
  double best = overlap_corr(0);
  for (int lag = 1; lag <= static_cast<int>(max_shift); ++lag) {
    for (int signed_lag : {lag, -lag}) {
      const double r = overlap_corr(signed_lag);
      if (r > best) {
        best = r;
        best_lag = signed_lag;
      }
    }
  }
  return best_lag;
}

std::vector<double> shift(std::span<const double> xs, int lag) {
  std::vector<double> out(xs.size());
  if (xs.empty()) return out;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const std::int64_t j = static_cast<std::int64_t>(i) - lag;
    const std::int64_t clamped = std::clamp<std::int64_t>(
        j, 0, static_cast<std::int64_t>(xs.size()) - 1);
    out[i] = xs[static_cast<std::size_t>(clamped)];
  }
  return out;
}

std::vector<double> sliding_mean(std::span<const double> xs,
                                 std::size_t window, std::size_t stride) {
  if (window == 0 || stride == 0) {
    throw std::invalid_argument("sliding_mean: window/stride must be >= 1");
  }
  if (window > xs.size()) return {};
  // O(n) rolling sum: roll the window by subtracting the samples that leave
  // and adding the ones that enter (stride-length folds) instead of
  // re-summing all `window` samples per output. To keep rounding error from
  // accumulating, re-anchor with a fresh full fold once per window's worth
  // of outputs — on inputs whose partial sums are exactly representable
  // (integer-grained hwmon counts, dyadic constants, denormals) every output
  // is bit-identical to the naive fold, which the regression test in
  // tests/core/preprocess_simd_test.cpp asserts.
  const std::size_t count = (xs.size() - window) / stride + 1;
  std::vector<double> out;
  out.reserve(count);
  const std::size_t refresh = (window + stride - 1) / stride;
  double sum = 0.0;
  for (std::size_t o = 0; o < count; ++o) {
    const std::size_t start = o * stride;
    if (o % refresh == 0) {
      sum = 0.0;
      for (std::size_t i = 0; i < window; ++i) sum += xs[start + i];
    } else {
      double leave = 0.0;
      double enter = 0.0;
      for (std::size_t i = 0; i < stride; ++i) {
        leave += xs[start - stride + i];
        enter += xs[start + window - stride + i];
      }
      sum = (sum - leave) + enter;
    }
    out.push_back(sum / static_cast<double>(window));
  }
  return out;
}

}  // namespace amperebleed::core
