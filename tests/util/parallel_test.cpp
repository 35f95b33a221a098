#include "amperebleed/util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace amperebleed::util {
namespace {

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  const std::size_t n = 1000;
  std::vector<int> hits(n, 0);
  parallel_for(n, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i], 1) << i;
  }
}

TEST(ParallelFor, SingleThreadFallback) {
  const std::size_t before = ThreadPool::global().size();
  ThreadPool::set_global_threads(1);
  std::vector<std::size_t> order;
  parallel_for(5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  ThreadPool::set_global_threads(before);
}

TEST(ParallelFor, ZeroAndOneItems) {
  int calls = 0;
  parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, ResultsIndependentOfThreadCount) {
  const std::size_t n = 200;
  std::vector<double> a(n);
  std::vector<double> b(n);
  const auto work = [](std::size_t i) {
    return static_cast<double>(i) * 1.5 + 1.0;
  };
  const std::size_t before = ThreadPool::global().size();
  ThreadPool::set_global_threads(1);
  parallel_for(n, [&](std::size_t i) { a[i] = work(i); });
  ThreadPool::set_global_threads(7);
  parallel_for(n, [&](std::size_t i) { b[i] = work(i); });
  ThreadPool::set_global_threads(before);
  EXPECT_EQ(a, b);
}

TEST(ParallelFor, PropagatesFirstException) {
  EXPECT_THROW(parallel_for(100,
                            [](std::size_t i) {
                              if (i == 42) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

TEST(ParallelFor, FailFastCancelsRemainingSweep) {
  // Run against a genuinely multi-threaded global pool regardless of the
  // host's core count, then restore the previous size.
  const std::size_t before = ThreadPool::global().size();
  ThreadPool::set_global_threads(4);
  // Index 0 throws only once all 4 executors hold a task, and those tasks
  // wait for the cancellation, so the count does not depend on thread
  // timing or on how long the throw takes to unwind. The deadline turns a
  // missing cancellation into a failure rather than a hang.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::atomic<int> executed{0};
  EXPECT_THROW(
      parallel_for(2000,
                   [&](std::size_t i) {
                     ++executed;
                     if (i == 0) {
                       while (executed.load() < 4 &&
                              std::chrono::steady_clock::now() < deadline) {
                         std::this_thread::yield();
                       }
                       throw std::invalid_argument("stop");
                     }
                     while (!ThreadPool::cancellation_requested() &&
                            std::chrono::steady_clock::now() < deadline) {
                       std::this_thread::yield();
                     }
                   }),
      std::invalid_argument);
  // With 4 participants, only the 3 non-throwing executors' in-flight tasks
  // may run besides the thrower; everything else must be skipped, not
  // executed.
  EXPECT_EQ(executed.load(), 4);
  ThreadPool::set_global_threads(before);
}

TEST(ParallelFor, NestedCallsRunInlineWithoutDeadlock) {
  const std::size_t before = ThreadPool::global().size();
  ThreadPool::set_global_threads(4);
  std::atomic<int> inner{0};
  parallel_for(6, [&](std::size_t) {
    parallel_for(5, [&](std::size_t) { ++inner; });
  });
  EXPECT_EQ(inner.load(), 30);
  ThreadPool::set_global_threads(before);
}

TEST(ParallelFor, WorkSharingCoversUnevenLoads) {
  // Tasks with wildly different costs must all still complete.
  std::atomic<int> done{0};
  parallel_for(64, [&](std::size_t i) {
    volatile double x = 0.0;
    for (std::size_t k = 0; k < (i % 8) * 10'000; ++k) x = x + 1.0;
    ++done;
  });
  EXPECT_EQ(done.load(), 64);
}

}  // namespace
}  // namespace amperebleed::util
