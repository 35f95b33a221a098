#include "amperebleed/util/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "amperebleed/obs/obs.hpp"
#include "amperebleed/util/cli.hpp"

namespace amperebleed::util {

namespace {

/// Depth of nested run() task execution on this thread. Any parallel region
/// launched while this is > 0 runs serially inline (the outermost region
/// owns the pool), which also makes nested regions deadlock-free.
thread_local int t_task_depth = 0;

/// Cancellation flag of the region whose task this thread is executing
/// (nullptr outside execute()).
thread_local const std::atomic<bool>* t_cancelled = nullptr;

}  // namespace

bool ThreadPool::in_worker() { return t_task_depth > 0; }

bool ThreadPool::cancellation_requested() {
  return t_cancelled != nullptr &&
         t_cancelled->load(std::memory_order_relaxed);
}

std::size_t ThreadPool::default_size() {
  if (const char* env = std::getenv("AMPEREBLEED_THREADS")) {
    return parse_size("AMPEREBLEED_THREADS", env);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::size_t ThreadPool::parse_size(std::string_view source,
                                   const std::string& text) {
  const std::int64_t threads = parse_int(source, text);
  if (threads < 1 || threads > static_cast<std::int64_t>(kMaxThreads)) {
    throw std::invalid_argument(
        std::string(source) + " must be a thread count in [1, " +
        std::to_string(kMaxThreads) + "], got '" + text + "'");
  }
  return static_cast<std::size_t>(threads);
}

ThreadPool& ThreadPool::global() {
  // Function-local static: workers are joined at normal program exit, so
  // the leak-sanitizer leg stays clean.
  static ThreadPool pool;
  return pool;
}

void ThreadPool::set_global_threads(std::size_t threads) {
  global().resize(threads);
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = default_size();
  size_.store(threads, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  spawn_workers_locked();
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::spawn_workers_locked() {
  const std::size_t target = size_.load(std::memory_order_relaxed);
  for (std::size_t i = 1; i < target; ++i) {
    workers_.emplace_back([this] {
      std::uint64_t seen_epoch = 0;
      std::unique_lock<std::mutex> lock(mu_);
      for (;;) {
        wake_cv_.wait(lock, [&] { return stop_ || epoch_ != seen_epoch; });
        if (stop_) return;
        seen_epoch = epoch_;
        Region* region = region_;
        if (region == nullptr || region->tickets == 0) continue;
        --region->tickets;
        ++active_;
        lock.unlock();
        execute(*region, obs::metrics_enabled(), /*is_caller=*/false);
        lock.lock();
        --active_;
        if (active_ == 0) done_cv_.notify_all();
      }
    });
  }
}

void ThreadPool::resize(std::size_t threads) {
  if (threads == 0) threads = default_size();
  // region_mu_ guarantees no region is active while workers are replaced.
  std::lock_guard<std::mutex> region_lock(region_mu_);
  if (threads == size()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
  workers_.clear();
  std::lock_guard<std::mutex> lock(mu_);
  stop_ = false;
  size_.store(threads, std::memory_order_relaxed);
  spawn_workers_locked();
}

void ThreadPool::run(std::size_t n,
                     const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t participants = std::min(size(), n);

  if (participants <= 1 || in_worker()) {
    // Exact serial fallback: caller's thread, index order; the first throw
    // propagates immediately (nothing else is in flight). With tracing on,
    // each iteration still runs under a TaskScope so the trace tree (task
    // parentage, region_id/task_index attributes) has the same shape the
    // pooled path produces — pool size must not change the recorded tree.
    if (obs::tracing_enabled()) {
      const obs::SpanContext parent = obs::current_context();
      const std::uint64_t region_id = obs::next_region_id();
      for (std::size_t i = 0; i < n; ++i) {
        obs::TaskScope scope(parent, region_id, i);
        fn(i);
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) fn(i);
    }
    return;
  }

  std::lock_guard<std::mutex> region_lock(region_mu_);
  const bool instrumented = obs::metrics_enabled();
  std::int64_t region_t0 = 0;
  if (instrumented) {
    region_t0 = obs::tracer().wall_now_ns();
    obs::gauge_set("pool.size", static_cast<double>(size()));
    obs::gauge_set("pool.queue_depth", static_cast<double>(n));
    obs::count("pool.regions");
    obs::count("pool.tasks", n);
    obs::observe("pool.region_tasks", static_cast<double>(n));
  }

  Region region;
  region.n = n;
  region.fn = &fn;
  region.chunk = std::max<std::size_t>(1, n / (participants * 4));
  region.traced = obs::tracing_enabled();
  if (region.traced) {
    // Capture the submitting thread's causal context by value: workers
    // restore it around each task, and the flow "s"/"f" pair draws the
    // cross-thread edge in the trace viewer.
    region.trace_ctx = obs::current_context();
    region.region_id = obs::next_region_id();
    obs::flow('s', region.region_id, "parallel_for");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    region.tickets = participants - 1;  // the caller takes one slot itself
    region_ = &region;
    ++epoch_;
  }
  wake_cv_.notify_all();

  execute(region, instrumented, /*is_caller=*/true);

  {
    std::unique_lock<std::mutex> lock(mu_);
    region_ = nullptr;   // late wakers must not join the finished region
    region.tickets = 0;
    done_cv_.wait(lock, [&] { return active_ == 0; });
  }

  if (instrumented) {
    obs::gauge_set("pool.queue_depth", 0.0);
    obs::observe("pool.region_wall_ns",
                 static_cast<double>(obs::tracer().wall_now_ns() - region_t0));
  }
  if (region.error) {
    obs::count("pool.cancelled_regions");
    std::rethrow_exception(region.error);
  }
}

void ThreadPool::execute(Region& region, bool instrumented, bool is_caller) {
  ++t_task_depth;
  const std::atomic<bool>* const outer_cancelled = t_cancelled;
  t_cancelled = &region.cancelled;
  if (instrumented) {
    const int occupied = occupancy_.fetch_add(1, std::memory_order_relaxed);
    obs::gauge_set("pool.active_workers", static_cast<double>(occupied + 1));
  }
  // One flow-finish edge per non-caller participant, on its first task.
  bool flow_bound = !region.traced || is_caller;
  bool draining = true;
  while (draining) {
    if (region.cancelled.load(std::memory_order_relaxed)) break;
    const std::size_t begin =
        region.next.fetch_add(region.chunk, std::memory_order_relaxed);
    if (begin >= region.n) break;
    if (!flow_bound) {
      obs::flow('f', region.region_id, "parallel_for");
      flow_bound = true;
    }
    const std::size_t end = std::min(begin + region.chunk, region.n);
    for (std::size_t i = begin; i < end; ++i) {
      // Fail-fast: re-check cancellation before every task so one thrown
      // exception stops the whole sweep promptly.
      if (region.cancelled.load(std::memory_order_relaxed)) {
        draining = false;
        break;
      }
      const std::int64_t t0 = instrumented ? obs::tracer().wall_now_ns() : 0;
      try {
        if (region.traced) {
          // The TaskScope restores the previous context even on throw (it
          // unwinds before the catch below).
          obs::TaskScope scope(region.trace_ctx, region.region_id, i);
          (*region.fn)(i);
        } else {
          (*region.fn)(i);
        }
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(mu_);
          if (!region.error) region.error = std::current_exception();
        }
        region.cancelled.store(true, std::memory_order_relaxed);
        draining = false;
        break;
      }
      if (instrumented) {
        obs::observe("pool.task_wall_ns",
                     static_cast<double>(obs::tracer().wall_now_ns() - t0));
      }
    }
  }
  if (instrumented) {
    const int occupied = occupancy_.fetch_sub(1, std::memory_order_relaxed);
    obs::gauge_set("pool.active_workers", static_cast<double>(occupied - 1));
  }
  t_cancelled = outer_cancelled;
  --t_task_depth;
}

}  // namespace amperebleed::util
