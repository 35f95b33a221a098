#include "amperebleed/core/preprocess.hpp"

#include <algorithm>
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

}  // namespace amperebleed::core
