#pragma once
// util::ThreadPool — the persistent worker pool behind util::parallel_for.
//
// The previous parallel_for spawned fresh std::threads on every call, which
// made fine-grained parallel regions (per-fold CV, per-tree forest training,
// per-row batched inference) pay thread-creation latency on every invocation.
// This pool keeps its workers alive for the life of the process and hands
// them chunked index ranges from an atomic cursor instead.
//
// Contracts:
//   * Determinism. run(n, fn) promises only that fn(i) executes exactly once
//     for every i in [0, n); callers write results to pre-sized slots (no
//     shared mutable state inside fn), so every experiment is bit-for-bit
//     reproducible at any pool size. With size() == 1 the pool owns no
//     worker threads at all and run() degenerates to an exact serial loop on
//     the calling thread, in index order.
//   * Fail-fast. The first exception thrown by fn cancels the remaining
//     sweep: every participant checks a shared cancellation flag before each
//     fn(i), and the captured exception is rethrown on the caller once all
//     in-flight tasks have drained.
//   * Nesting. A parallel region launched from inside another region's task
//     (ThreadPool::in_worker()) executes serially inline — the outermost
//     loop owns the parallelism, inner loops stay deterministic and cheap.
//   * Sizing. The process-wide pool (global()) is sized from the
//     AMPEREBLEED_THREADS environment variable (else hardware concurrency);
//     the bench --threads flag resizes it via set_global_threads(). Both
//     outside sources go through parse_size(), which bounds them.
//
// Observability (only when obs metrics are enabled): pool.size /
// pool.queue_depth / pool.active_workers gauges, pool.regions / pool.tasks /
// pool.cancelled_regions counters, and pool.task_wall_ns /
// pool.region_wall_ns P2-quantile histograms.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "amperebleed/obs/context.hpp"

namespace amperebleed::util {

class ThreadPool {
 public:
  /// `threads` is the total executor count including the caller of run();
  /// the pool spawns threads-1 workers. 0 picks default_size(). Size 1
  /// spawns nothing and makes run() an exact serial fallback.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Configured executor count (workers + the participating caller).
  [[nodiscard]] std::size_t size() const {
    return size_.load(std::memory_order_relaxed);
  }

  /// Execute fn(i) exactly once for every i in [0, n). The calling thread
  /// participates; at most min(size(), n) threads execute tasks. Blocks
  /// until every task has finished or the sweep was cancelled by an
  /// exception, which is then rethrown here. Concurrent run() calls from
  /// different threads are serialized (one region at a time).
  void run(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Join all workers and respawn at the new size (0 = default_size()).
  /// Blocks until the pool is idle; must not be called from inside a task.
  void resize(std::size_t threads);

  /// True while the calling thread is executing inside a run() task.
  [[nodiscard]] static bool in_worker();

  /// True when the calling thread is executing a run() task whose region
  /// an exception has already cancelled. Long tasks may poll it to stop
  /// early; it is false outside pooled tasks and in the serial fallback.
  [[nodiscard]] static bool cancellation_requested();

  /// The process-wide pool used by util::parallel_for. Constructed on first
  /// use at default_size(); never re-created.
  static ThreadPool& global();
  /// Resize the global pool — the bench `--threads N` flag lands here.
  static void set_global_threads(std::size_t threads);
  /// AMPEREBLEED_THREADS environment override (through parse_size(), so a
  /// malformed or out-of-range value throws), else
  /// std::thread::hardware_concurrency(), never less than 1.
  static std::size_t default_size();

  /// Largest pool size a flag or the environment may ask for; CI runs 1/4/8.
  static constexpr std::size_t kMaxThreads = 256;
  /// Parses a pool size that comes from outside the program: an integer in
  /// [1, kMaxThreads] by util::parse_int's rules. Anything else throws
  /// std::invalid_argument naming `source` (flag or variable) and `text`.
  static std::size_t parse_size(std::string_view source,
                                const std::string& text);

 private:
  /// One parallel region. Lives on the run() caller's stack; workers only
  /// reach it through region_ (guarded by mu_), and run() does not return
  /// until every participant has left execute().
  struct Region {
    std::size_t n = 0;
    std::size_t chunk = 1;
    const std::function<void(std::size_t)>* fn = nullptr;
    std::atomic<std::size_t> next{0};     // index cursor, claimed in chunks
    std::atomic<bool> cancelled{false};   // fail-fast flag
    std::size_t tickets = 0;              // worker slots left (guarded by mu_)
    std::exception_ptr error;             // first throw (guarded by mu_)
    /// Causal-trace capture (tracing only): the submitting thread's span
    /// context and this region's id, re-installed around every task via
    /// obs::TaskScope so task spans parent to the submitter's span.
    bool traced = false;
    obs::SpanContext trace_ctx;
    std::uint64_t region_id = 0;
  };

  void spawn_workers_locked();
  void execute(Region& region, bool instrumented, bool is_caller);

  mutable std::mutex mu_;
  std::condition_variable wake_cv_;  // workers sleep here between regions
  std::condition_variable done_cv_;  // run() waits here for workers to leave
  std::vector<std::thread> workers_;
  Region* region_ = nullptr;  // nullptr = no joinable region
  std::uint64_t epoch_ = 0;   // bumped per published region
  std::size_t active_ = 0;    // workers currently inside execute()
  bool stop_ = false;
  std::atomic<std::size_t> size_{1};
  std::atomic<int> occupancy_{0};  // executors inside execute() (for obs)

  std::mutex region_mu_;  // serializes concurrent run() callers
};

}  // namespace amperebleed::util
