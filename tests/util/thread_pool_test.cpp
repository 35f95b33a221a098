#include "amperebleed/util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "amperebleed/obs/obs.hpp"
#include "support/scoped_env.hpp"

namespace amperebleed::util {
namespace {

TEST(ThreadPool, DefaultSizeHonoursEnvironmentOverride) {
  const test::ScopedEnv env("AMPEREBLEED_THREADS");
  env.set("3");
  EXPECT_EQ(ThreadPool::default_size(), 3u);
  // A malformed or out-of-range override is an error, not a silent
  // fall-back to hardware concurrency.
  env.set("garbage");
  EXPECT_THROW(static_cast<void>(ThreadPool::default_size()),
               std::invalid_argument);
  env.set("0");
  EXPECT_THROW(static_cast<void>(ThreadPool::default_size()),
               std::invalid_argument);
  env.unset();
  EXPECT_GE(ThreadPool::default_size(), 1u);
}

// parse_size only parses: none of these cases constructs a pool, so the
// out-of-range ones start no threads.
TEST(ThreadPool, ParseSizeAcceptsOneUpToTheBound) {
  EXPECT_EQ(ThreadPool::parse_size("--threads", "1"), 1u);
  EXPECT_EQ(ThreadPool::parse_size("--threads", "8"), 8u);
  EXPECT_EQ(ThreadPool::parse_size("--threads", "256"),
            ThreadPool::kMaxThreads);
  for (const char* bad :
       {"0", "-1", "257", "100000", "8x", "", "four", "99999999999999999999"}) {
    for (const char* source : {"--threads", "AMPEREBLEED_THREADS"}) {
      try {
        static_cast<void>(ThreadPool::parse_size(source, bad));
        ADD_FAILURE() << source << " accepted '" << bad << "'";
      } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(source), std::string::npos) << what;
        EXPECT_NE(what.find(std::string("'") + bad + "'"), std::string::npos)
            << what;
      }
    }
  }
}

TEST(ThreadPool, SizeOneIsAnExactSerialLoop) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<std::size_t> order;
  const std::function<void(std::size_t)> fn = [&](std::size_t i) {
    order.push_back(i);
  };
  pool.run(6, fn);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5}));
}

TEST(ThreadPool, RunVisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t n = 5000;
  std::vector<int> hits(n, 0);
  const std::function<void(std::size_t)> fn = [&](std::size_t i) {
    ++hits[i];  // each slot touched by exactly one task
  };
  pool.run(n, fn);
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i], 1) << i;
}

TEST(ThreadPool, NestedRegionsRunSeriallyInline) {
  ThreadPool pool(4);
  std::atomic<int> inner_calls{0};
  std::atomic<bool> saw_worker_flag{false};
  const std::function<void(std::size_t)> outer = [&](std::size_t) {
    if (ThreadPool::in_worker()) saw_worker_flag = true;
    // A nested region must not deadlock and must still visit every index.
    const std::function<void(std::size_t)> inner = [&](std::size_t) {
      ++inner_calls;
    };
    pool.run(10, inner);
  };
  pool.run(8, outer);
  EXPECT_EQ(inner_calls.load(), 80);
  EXPECT_TRUE(saw_worker_flag.load());
  EXPECT_FALSE(ThreadPool::in_worker());  // flag is scoped to task execution
}

TEST(ThreadPool, ExceptionIsRethrownOnCaller) {
  ThreadPool pool(4);
  const std::function<void(std::size_t)> fn = [](std::size_t i) {
    if (i == 7) throw std::runtime_error("boom");
  };
  EXPECT_THROW(pool.run(64, fn), std::runtime_error);
  // The pool survives a cancelled region and runs the next one normally.
  std::atomic<int> calls{0};
  const std::function<void(std::size_t)> ok = [&](std::size_t) { ++calls; };
  pool.run(32, ok);
  EXPECT_EQ(calls.load(), 32);
}

TEST(ThreadPool, CancellationStopsTasksAfterTheThrow) {
  // Fail-fast contract: once a task has thrown, only the tasks already in
  // flight (one per other participant) may finish; nothing else starts.
  // Task 0 throws only once all 4 participants hold a task, and those tasks
  // wait for the cancellation, so the count does not depend on thread
  // timing or on how long the throw takes to unwind. The deadline turns a
  // pool that never cancels into a failure rather than a hang.
  ThreadPool pool(4);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::atomic<int> executed{0};
  const std::function<void(std::size_t)> fn = [&](std::size_t i) {
    ++executed;
    if (i == 0) {
      while (executed.load() < 4 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      throw std::runtime_error("cancel the sweep");
    }
    while (!ThreadPool::cancellation_requested() &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  };
  EXPECT_THROW(pool.run(2000, fn), std::runtime_error);
  // The thrower plus the 3 tasks in flight when the flag flipped.
  EXPECT_EQ(executed.load(), 4);
}

TEST(ThreadPool, CancellationRequestedIsFalseOutsideACancelledRegion) {
  EXPECT_FALSE(ThreadPool::cancellation_requested());
  ThreadPool pool(4);
  std::atomic<int> seen{0};
  const std::function<void(std::size_t)> fn = [&](std::size_t) {
    if (ThreadPool::cancellation_requested()) ++seen;
  };
  pool.run(256, fn);
  EXPECT_EQ(seen.load(), 0);
  EXPECT_FALSE(ThreadPool::cancellation_requested());
}

TEST(ThreadPool, ResizeChangesExecutorCount) {
  ThreadPool pool(1);
  pool.resize(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<int> hits(128, 0);
  const std::function<void(std::size_t)> fn = [&](std::size_t i) {
    ++hits[i];
  };
  pool.run(hits.size(), fn);
  for (int h : hits) EXPECT_EQ(h, 1);
  pool.resize(1);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(ThreadPool, GlobalPoolResizableViaSetGlobalThreads) {
  const std::size_t before = ThreadPool::global().size();
  ThreadPool::set_global_threads(2);
  EXPECT_EQ(ThreadPool::global().size(), 2u);
  ThreadPool::set_global_threads(before);
  EXPECT_EQ(ThreadPool::global().size(), before);
}

TEST(ThreadPool, ObsRegionMetricsWhenEnabled) {
  obs::init();
  ThreadPool pool(2);
  const std::function<void(std::size_t)> fn = [](std::size_t) {};
  pool.run(50, fn);
  const auto& m = obs::metrics();
  EXPECT_EQ(m.counter_value("pool.tasks"), 50u);
  EXPECT_EQ(m.counter_value("pool.regions"), 1u);
  obs::shutdown();
}

TEST(ThreadPool, NoObsTrafficWhenDisabled) {
  // With obs off (the experiment default), a region must not register pool
  // counters: instrumentation never perturbs the uninstrumented path.
  ThreadPool pool(2);
  const std::function<void(std::size_t)> fn = [](std::size_t) {};
  pool.run(10, fn);
  obs::init();
  EXPECT_EQ(obs::metrics().counter_value("pool.tasks"), 0u);
  obs::shutdown();
}

}  // namespace
}  // namespace amperebleed::util
