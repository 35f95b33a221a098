#pragma once
// Reference gap reconstruction: the branchy per-sample fill_gaps loop with
// no obs/quality side effects, kept as the oracle that
// tests/core/preprocess_simd_test.cpp pits core::fill_gaps against.

#include <cstdint>
#include <span>
#include <vector>

#include "amperebleed/core/preprocess.hpp"

namespace amperebleed::core::reference {

/// Same semantics as core::fill_gaps for every GapPolicy.
std::vector<double> fill_gaps(std::span<const double> values,
                              std::span<const std::uint8_t> validity,
                              GapPolicy policy);

}  // namespace amperebleed::core::reference
