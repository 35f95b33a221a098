#pragma once
// Distribution separability — formalizes Fig 4's claim that FPGA current
// distinguishes all 17 RSA key Hamming-weight classes while FPGA power
// collapses them into ~5 groups.

#include <span>
#include <vector>

namespace amperebleed::stats {

/// Accuracy of the best single-threshold classifier between two empirical
/// 1-D sample sets (balanced accuracy over the two classes; 0.5 = fully
/// overlapping, 1.0 = perfectly separated). Throws on an empty class.
double threshold_accuracy(std::span<const double> a, std::span<const double> b);

/// True when the two sample sets can be told apart by a single threshold
/// with at least `min_accuracy` balanced accuracy.
bool separable(std::span<const double> a, std::span<const double> b,
               double min_accuracy = 0.95);

/// Greedy grouping of ordered classes: walk classes in the given order and
/// start a new group whenever the class is separable from the *last class in
/// the current group*. Returns per-class group ids (0-based, nondecreasing).
/// This mirrors how an attacker reading Fig 4 clusters the key classes.
std::vector<std::size_t> group_indistinguishable(
    const std::vector<std::vector<double>>& classes,
    double min_accuracy = 0.95);

/// Number of distinct groups produced by group_indistinguishable().
std::size_t count_separable_groups(
    const std::vector<std::vector<double>>& classes,
    double min_accuracy = 0.95);

}  // namespace amperebleed::stats
