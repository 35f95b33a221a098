#pragma once
// Deterministic work-sharing helper: run fn(i) for i in [0, n) on the
// process-wide util::ThreadPool (see thread_pool.hpp) instead of spawning
// fresh std::threads per call. Results must be written to pre-sized slots
// (no shared mutable state inside fn), which keeps every experiment
// bit-for-bit reproducible regardless of the pool size.
//
// Semantics:
//   * Every pool executor may participate; size the pool with
//     AMPEREBLEED_THREADS / --threads / ThreadPool::set_global_threads().
//   * With a pool of size 1, a single item, or when already inside another
//     parallel region (nested call), the loop runs serially inline on the
//     caller, in index order.
//   * Fail-fast: the first exception thrown by fn cancels the remaining
//     sweep (participants check a shared cancellation flag before each
//     fn(i)) and is rethrown on the caller.

#include <cstddef>
#include <functional>

#include "amperebleed/obs/obs.hpp"
#include "amperebleed/util/thread_pool.hpp"

namespace amperebleed::util {

template <typename Fn>
void parallel_for(std::size_t n, Fn&& fn) {
  if (n == 0) return;
  ThreadPool& pool = ThreadPool::global();
  if (!obs::tracing_enabled() &&
      (n == 1 || pool.size() <= 1 || ThreadPool::in_worker())) {
    // Untraced serial fast path: no type erasure, no region bookkeeping.
    // With tracing on, every invocation goes through pool.run() instead so
    // each iteration gets the same TaskScope (task parentage + region/task
    // attributes) at any pool size — run() falls back to its own serial
    // loop for these cases, producing an identical trace tree shape.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // One type-erasure per region (not per index); the callable lives on this
  // stack frame for the duration of the region.
  const std::function<void(std::size_t)> erased = [&fn](std::size_t i) {
    fn(i);
  };
  pool.run(n, erased);
}

}  // namespace amperebleed::util
