#pragma once
// Trace preprocessing: gap reconstruction between raw hwmon polls and
// features. The paper feeds the fixed-cadence traces to its classifier as
// they are, so the only cleanup a trace needs is filling the samples the
// resilient sampler could not read.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

namespace amperebleed::core {

class Trace;

/// How to reconstruct gap samples (failed reads the resilient sampler
/// recorded as invalid placeholders) before a trace reaches features/ml.
///
///   HoldLast          — forward-fill from the last valid sample (what a
///                       frozen hwmon register would have shown; matches the
///                       FrozenRegister fault's physics). Leading gaps
///                       backfill from the first valid sample.
///   LinearInterpolate — straight line between the valid neighbours; edge
///                       gaps clamp to the nearest valid sample.
///   Drop              — remove invalid samples (shortens the series; only
///                       safe for consumers that tolerate length changes).
enum class GapPolicy { HoldLast, LinearInterpolate, Drop };

inline constexpr std::size_t kGapPolicyCount = 3;
inline constexpr GapPolicy kAllGapPolicies[] = {
    GapPolicy::HoldLast,
    GapPolicy::LinearInterpolate,
    GapPolicy::Drop,
};

std::string_view gap_policy_name(GapPolicy p);
/// Inverse of gap_policy_name; nullopt for unknown names.
std::optional<GapPolicy> gap_policy_from_name(std::string_view name);

/// Reconstruct the invalid samples of `values` (validity[i] == 0) per the
/// policy. An empty validity mask means "all valid" (the gapless fast
/// path): the input is returned unchanged. An all-invalid series
/// reconstructs to zeros (HoldLast/LinearInterpolate) or empty (Drop).
/// Throws if a non-empty mask's length mismatches `values`.
std::vector<double> fill_gaps(std::span<const double> values,
                              std::span<const std::uint8_t> validity,
                              GapPolicy policy);

/// Convenience overload pulling values/validity from a Trace.
std::vector<double> fill_gaps(const Trace& trace, GapPolicy policy);

}  // namespace amperebleed::core
