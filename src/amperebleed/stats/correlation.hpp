#pragma once
// Correlation coefficients. Pearson r is the headline metric of the paper's
// Fig 2 characterization (r = 0.999 for current vs. activity level).

#include <span>

namespace amperebleed::stats {

/// Pearson product-moment correlation of two equal-length series.
/// Returns 0 when either series is constant (no linear relationship is
/// defined; 0 is the conventional "uninformative" answer used by the bench).
/// Throws std::invalid_argument on length mismatch or fewer than 2 points.
double pearson(std::span<const double> xs, std::span<const double> ys);

}  // namespace amperebleed::stats
