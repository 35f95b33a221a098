#pragma once
// Two-sample hypothesis tests: the Kolmogorov-Smirnov test (whole-
// distribution difference, which catches quantization-shape effects a mean
// test misses) and the chi-square goodness-of-fit the drift monitor runs on
// class-mix windows.

#include <span>

namespace amperebleed::stats {

struct KsResult {
  double d = 0.0;        // max ECDF distance
  double p_value = 1.0;  // asymptotic two-sided
};

/// Two-sample Kolmogorov-Smirnov test (asymptotic p-value; adequate for the
/// hundreds-to-thousands sample sizes used here). Throws on empty samples.
KsResult ks_test(std::span<const double> a, std::span<const double> b);

struct ChiSquareResult {
  double chi2 = 0.0;          // Pearson statistic over the merged buckets
  double dof = 0.0;           // merged buckets - 1
  double p_value = 1.0;       // upper tail, Q(dof/2, chi2/2)
  std::size_t buckets_used = 0;  // bucket count after small-count merging
};

/// Chi-square goodness-of-fit of observed counts against expected counts
/// (same length; `expected` may be unnormalized — it is rescaled to the
/// observed total). Adjacent buckets are merged left-to-right until every
/// merged bucket's expected count reaches `min_expected` (Cochran's rule;
/// a deficient tail folds into the last bucket), which keeps the chi-square
/// approximation honest for the sparse class-mix windows the drift monitor
/// feeds in. Fewer than 2 surviving buckets degenerates to chi2 = 0, p = 1.
/// Throws on length mismatch, empty input, any negative count, or a
/// nonpositive expected total.
ChiSquareResult chi_square_gof(std::span<const double> observed,
                               std::span<const double> expected,
                               double min_expected = 5.0);

/// Regularized upper incomplete gamma Q(a, x) (series for x < a + 1,
/// continued fraction otherwise). The chi-square survival function is
/// Q(dof/2, chi2/2); exposed so tests can pin it against known critical
/// values. Requires a > 0, x >= 0.
double regularized_gamma_q(double a, double x);

}  // namespace amperebleed::stats
