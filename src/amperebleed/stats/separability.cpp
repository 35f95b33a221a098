#include "amperebleed/stats/separability.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace amperebleed::stats {

double threshold_accuracy(std::span<const double> a,
                          std::span<const double> b) {
  if (a.empty() || b.empty()) {
    throw std::invalid_argument("threshold_accuracy: empty class");
  }
  // Candidate thresholds: all sample values (sorted, merged). For each
  // threshold t evaluate both orientations (a below / a above) and keep the
  // best balanced accuracy.
  std::vector<double> sa(a.begin(), a.end());
  std::vector<double> sb(b.begin(), b.end());
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());

  std::vector<double> candidates;
  candidates.reserve(sa.size() + sb.size() + 1);
  candidates.insert(candidates.end(), sa.begin(), sa.end());
  candidates.insert(candidates.end(), sb.begin(), sb.end());
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  // Also consider a threshold above every sample.
  candidates.push_back(candidates.back() +
                       (candidates.size() > 1
                            ? candidates.back() - candidates.front()
                            : 1.0) +
                       1.0);

  const auto frac_below = [](const std::vector<double>& sorted, double t) {
    const auto it = std::lower_bound(sorted.begin(), sorted.end(), t);
    return static_cast<double>(std::distance(sorted.begin(), it)) /
           static_cast<double>(sorted.size());
  };

  double best = 0.5;
  for (double t : candidates) {
    const double fa = frac_below(sa, t);
    const double fb = frac_below(sb, t);
    const double acc_a_low = 0.5 * (fa + (1.0 - fb));
    const double acc_b_low = 0.5 * (fb + (1.0 - fa));
    best = std::max({best, acc_a_low, acc_b_low});
  }
  return best;
}

bool separable(std::span<const double> a, std::span<const double> b,
               double min_accuracy) {
  return threshold_accuracy(a, b) >= min_accuracy;
}

std::vector<std::size_t> group_indistinguishable(
    const std::vector<std::vector<double>>& classes, double min_accuracy) {
  std::vector<std::size_t> group_ids(classes.size(), 0);
  if (classes.empty()) return group_ids;
  std::size_t group = 0;
  std::size_t anchor = 0;  // representative (last) class of the current group
  for (std::size_t i = 1; i < classes.size(); ++i) {
    if (separable(classes[anchor], classes[i], min_accuracy)) {
      ++group;
      anchor = i;
    }
    group_ids[i] = group;
  }
  return group_ids;
}

std::size_t count_separable_groups(
    const std::vector<std::vector<double>>& classes, double min_accuracy) {
  if (classes.empty()) return 0;
  return group_indistinguishable(classes, min_accuracy).back() + 1;
}

}  // namespace amperebleed::stats
