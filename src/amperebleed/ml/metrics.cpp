#include "amperebleed/ml/metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace amperebleed::ml {

double accuracy(std::span<const int> truth, std::span<const int> predicted) {
  if (truth.size() != predicted.size()) {
    throw std::invalid_argument("accuracy: length mismatch");
  }
  if (truth.empty()) return 0.0;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    if (truth[i] == predicted[i]) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(truth.size());
}

double top_k_accuracy(std::span<const int> truth,
                      const std::vector<std::vector<int>>& candidates) {
  if (truth.size() != candidates.size()) {
    throw std::invalid_argument("top_k_accuracy: length mismatch");
  }
  if (truth.empty()) return 0.0;
  std::size_t hits = 0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    if (std::find(candidates[i].begin(), candidates[i].end(), truth[i]) !=
        candidates[i].end()) {
      ++hits;
    }
  }
  return static_cast<double>(hits) / static_cast<double>(truth.size());
}

}  // namespace amperebleed::ml
