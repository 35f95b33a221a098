#include "support/reference_fill_gaps.hpp"

#include <algorithm>

namespace amperebleed::core::reference {

std::vector<double> fill_gaps(std::span<const double> values,
                              std::span<const std::uint8_t> validity,
                              GapPolicy policy) {
  if (validity.empty()) return {values.begin(), values.end()};

  if (policy == GapPolicy::Drop) {
    std::vector<double> out;
    out.reserve(values.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (validity[i] != 0) out.push_back(values[i]);
    }
    return out;
  }

  std::vector<double> out(values.begin(), values.end());
  std::size_t first_valid = values.size();
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (validity[i] != 0) {
      first_valid = i;
      break;
    }
  }
  if (first_valid == values.size()) {
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

}  // namespace amperebleed::core::reference
