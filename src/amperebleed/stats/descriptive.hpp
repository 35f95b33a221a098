#pragma once
// Descriptive statistics over sample vectors. Used throughout the attack
// pipeline (trace summarization, Fig 2/Fig 4 analyses).

#include <cstddef>
#include <span>
#include <vector>

namespace amperebleed::stats {

/// One-pass summary of a sample set.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double variance = 0.0;  // population variance (1/N)
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Compute the full summary. Returns a zeroed Summary for empty input.
Summary summarize(std::span<const double> xs);

double mean(std::span<const double> xs);
/// Population variance (1/N). Returns 0 for fewer than 1 sample.
double variance(std::span<const double> xs);
double stddev(std::span<const double> xs);

/// Linear-interpolated quantile, q in [0,1]. Throws on empty input or q
/// outside [0,1]. Input need not be sorted (a sorted copy is made).
double quantile(std::span<const double> xs, double q);
double median(std::span<const double> xs);

/// Mean absolute successive difference — sensitivity of a series to
/// consecutive-level changes; this is the "variation" metric used for the
/// paper's 261x current-vs-RO comparison.
double mean_abs_successive_diff(std::span<const double> xs);

}  // namespace amperebleed::stats
