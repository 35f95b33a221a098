#include "amperebleed/stats/hypothesis.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

namespace amperebleed::stats {

namespace {

// Regularized lower incomplete gamma P(a, x) by series expansion
// (Numerical Recipes gser); converges fast for x < a + 1.
double gamma_p_series(double a, double x) {
  constexpr int kMaxIterations = 500;
  constexpr double kEps = 3e-14;
  double ap = a;
  double sum = 1.0 / a;
  double del = sum;
  for (int n = 0; n < kMaxIterations; ++n) {
    ap += 1.0;
    del *= x / ap;
    sum += del;
    if (std::fabs(del) < std::fabs(sum) * kEps) break;
  }
  return sum * std::exp(-x + a * std::log(x) - std::lgamma(a));
}

// Regularized upper incomplete gamma Q(a, x) by Lentz continued fraction
// (Numerical Recipes gcf); converges fast for x >= a + 1.
double gamma_q_cf(double a, double x) {
  constexpr int kMaxIterations = 500;
  constexpr double kEps = 3e-14;
  constexpr double kFpMin = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / kFpMin;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kMaxIterations; ++i) {
    const double an = -i * (i - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kFpMin) d = kFpMin;
    c = b + an / c;
    if (std::fabs(c) < kFpMin) c = kFpMin;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::fabs(del - 1.0) < kEps) break;
  }
  return h * std::exp(-x + a * std::log(x) - std::lgamma(a));
}

}  // namespace

double regularized_gamma_q(double a, double x) {
  if (a <= 0.0 || x < 0.0) {
    throw std::invalid_argument("regularized_gamma_q: need a > 0, x >= 0");
  }
  if (x == 0.0) return 1.0;
  if (x < a + 1.0) return 1.0 - gamma_p_series(a, x);
  return gamma_q_cf(a, x);
}

ChiSquareResult chi_square_gof(std::span<const double> observed,
                               std::span<const double> expected,
                               double min_expected) {
  if (observed.empty() || observed.size() != expected.size()) {
    throw std::invalid_argument(
        "chi_square_gof: observed/expected must be same nonempty length");
  }
  double obs_total = 0.0;
  double exp_total = 0.0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    if (observed[i] < 0.0 || expected[i] < 0.0) {
      throw std::invalid_argument("chi_square_gof: negative count");
    }
    obs_total += observed[i];
    exp_total += expected[i];
  }
  if (exp_total <= 0.0) {
    throw std::invalid_argument("chi_square_gof: expected total must be > 0");
  }
  const double scale = obs_total / exp_total;

  // Merge adjacent buckets left-to-right until each merged bucket's
  // (rescaled) expected count clears min_expected; a deficient tail folds
  // into the previous merged bucket so no probability mass is dropped.
  std::vector<std::pair<double, double>> merged;  // (observed, expected)
  double acc_obs = 0.0;
  double acc_exp = 0.0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    acc_obs += observed[i];
    acc_exp += expected[i] * scale;
    if (acc_exp >= min_expected) {
      merged.emplace_back(acc_obs, acc_exp);
      acc_obs = 0.0;
      acc_exp = 0.0;
    }
  }
  if (acc_exp > 0.0 || acc_obs > 0.0) {
    if (merged.empty()) {
      merged.emplace_back(acc_obs, acc_exp);
    } else {
      merged.back().first += acc_obs;
      merged.back().second += acc_exp;
    }
  }

  ChiSquareResult result;
  result.buckets_used = merged.size();
  if (merged.size() < 2) return result;  // nothing left to test: p = 1
  for (const auto& [o, e] : merged) {
    if (e == 0.0) {
      // Only reachable with min_expected <= 0: observed mass where none was
      // expected is an unconditional rejection.
      if (o > 0.0) {
        result.chi2 = std::numeric_limits<double>::infinity();
        result.dof = static_cast<double>(merged.size() - 1);
        result.p_value = 0.0;
        return result;
      }
      continue;
    }
    const double diff = o - e;
    result.chi2 += diff * diff / e;
  }
  result.dof = static_cast<double>(merged.size() - 1);
  result.p_value =
      std::clamp(regularized_gamma_q(result.dof / 2.0, result.chi2 / 2.0),
                 0.0, 1.0);
  return result;
}

KsResult ks_test(std::span<const double> a, std::span<const double> b) {
  if (a.empty() || b.empty()) {
    throw std::invalid_argument("ks_test: empty sample");
  }
  std::vector<double> sa(a.begin(), a.end());
  std::vector<double> sb(b.begin(), b.end());
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());

  KsResult result;
  std::size_t i = 0;
  std::size_t j = 0;
  const double na = static_cast<double>(sa.size());
  const double nb = static_cast<double>(sb.size());
  while (i < sa.size() && j < sb.size()) {
    const double value = std::min(sa[i], sb[j]);
    while (i < sa.size() && sa[i] <= value) ++i;
    while (j < sb.size() && sb[j] <= value) ++j;
    result.d = std::max(
        result.d, std::fabs(static_cast<double>(i) / na -
                            static_cast<double>(j) / nb));
  }

  // Asymptotic two-sided p-value (Kolmogorov distribution tail). The
  // alternating series diverges pointwise at lambda -> 0 where Q == 1.
  const double ne = na * nb / (na + nb);
  const double lambda =
      (std::sqrt(ne) + 0.12 + 0.11 / std::sqrt(ne)) * result.d;
  if (lambda < 0.3) {
    result.p_value = 1.0;
    return result;
  }
  double p = 0.0;
  double sign = 1.0;
  for (int k = 1; k <= 100; ++k) {
    const double term = std::exp(-2.0 * k * k * lambda * lambda);
    p += sign * term;
    sign = -sign;
    if (term < 1e-12) break;
  }
  result.p_value = std::clamp(2.0 * p, 0.0, 1.0);
  return result;
}

}  // namespace amperebleed::stats
