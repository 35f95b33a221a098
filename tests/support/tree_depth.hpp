#pragma once
// Depth of one tree of a packed forest, read off the arena's preorder rows.
// A fitted tree keeps no depth of its own; tests that bound or compare a
// tree's depth walk it here.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "amperebleed/ml/forest_arena.hpp"

namespace amperebleed::test {

/// Largest leaf depth of tree `t` in `arena` (a lone leaf has depth 0).
inline int tree_depth(const ml::ForestArena& arena, std::size_t t) {
  int depth = 0;
  std::vector<std::pair<std::int32_t, int>> stack = {{arena.roots[t], 0}};
  while (!stack.empty()) {
    const auto [i, d] = stack.back();
    stack.pop_back();
    const auto node = static_cast<std::size_t>(i);
    if (arena.feature[node] == ml::ForestArena::kLeaf) {
      depth = std::max(depth, d);
    } else {
      stack.emplace_back(i + 1, d + 1);
      stack.emplace_back(arena.right[node], d + 1);
    }
  }
  return depth;
}

}  // namespace amperebleed::test
