#pragma once
// Classification metrics: top-1/top-k accuracy, matching what Table III
// reports per sensor channel and duration.

#include <span>
#include <vector>

namespace amperebleed::ml {

/// Fraction of samples whose predicted label equals the true label.
/// Throws on length mismatch; returns 0 for empty input.
double accuracy(std::span<const int> truth, std::span<const int> predicted);

/// Fraction of samples whose true label appears in the per-sample candidate
/// list (e.g. top-5 predictions). Throws on length mismatch.
double top_k_accuracy(std::span<const int> truth,
                      const std::vector<std::vector<int>>& candidates);

}  // namespace amperebleed::ml
