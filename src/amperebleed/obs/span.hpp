#pragma once
// Span tracer exporting Chrome trace_event JSON (load the file in
// chrome://tracing or https://ui.perfetto.dev). Two clock domains coexist in
// one trace: wall-clock spans (RAII ScopedSpan around host work such as
// forest training) on pid 1, and virtual-time spans (simulation events such
// as DPU layer schedules, timestamped in sim::TimeNs) on pid 2. Every event
// carries the *other* clock's timestamp in its args, so wall cost and
// simulated time can be cross-referenced.
//
// Wall spans are causal: each carries a SpanContext (obs/context.hpp) whose
// parent is the span live on the creating thread at construction — including
// pool tasks, where util::ThreadPool re-installs the submitting thread's
// context. Cross-thread region edges additionally get Chrome flow events
// ("s" on the submitting thread, "f" with bp:"e" on each worker) so trace
// viewers draw the arrows.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "amperebleed/obs/context.hpp"
#include "amperebleed/sim/time.hpp"
#include "amperebleed/util/json.hpp"

namespace amperebleed::obs {

enum class SpanClock {
  Wall,     // host steady_clock, microseconds since tracer construction
  Virtual,  // simulation TimeNs
};

struct TraceEvent {
  std::string name;
  std::string category;
  SpanClock clock = SpanClock::Wall;
  /// Chrome phase: 'X' complete span, 's' flow start, 'f' flow finish.
  char phase = 'X';
  double ts_us = 0.0;   // in the event's own clock domain
  double dur_us = 0.0;
  std::uint64_t tid = 0;
  /// Causal identity ('X' wall spans only; 0 = not tracked).
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  /// Flow-event binding id ('s'/'f' phases; the region id).
  std::uint64_t flow_id = 0;
  /// Cross-clock reference: wall ns for virtual events, virtual ns for wall
  /// events (negative when unknown).
  std::int64_t other_clock_ns = -1;
  /// Optional numeric arguments (small, copied into the args object).
  std::vector<std::pair<std::string, double>> args;
  /// Optional string arguments (channel / model_id / fault kind ...).
  std::vector<std::pair<std::string, std::string>> str_args;
};

/// Bounded, thread-safe event buffer. When full, new events are counted in
/// dropped() instead of recorded, so tracing can never exhaust memory.
class SpanTracer {
 public:
  explicit SpanTracer(std::size_t max_events = 1 << 20);

  /// Record a completed span ("ph":"X").
  void add_event(TraceEvent event);

  /// Convenience: record a virtual-time span. `wall_ns` cross-references the
  /// host clock (pass wall_now_ns(), or -1 if not meaningful).
  void add_virtual_span(
      std::string name, std::string category, sim::TimeNs start,
      sim::TimeNs duration,
      std::vector<std::pair<std::string, double>> args = {});

  /// Record a flow event ('s' start on the submitting thread, 'f' finish on
  /// a worker) binding cross-thread edges under `flow_id`.
  void add_flow_event(char phase, std::uint64_t flow_id, std::string name,
                      std::string category = "pool");

  /// Microseconds of wall time since tracer construction.
  [[nodiscard]] double wall_now_us() const;
  /// Nanoseconds of wall time since tracer construction.
  [[nodiscard]] std::int64_t wall_now_ns() const;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t dropped() const;
  [[nodiscard]] std::size_t capacity() const { return max_events_; }

  /// Point-in-time copy of every recorded event (profiling, tests).
  [[nodiscard]] std::vector<TraceEvent> events_snapshot() const;

  /// The whole trace as a Chrome trace_event JSON document:
  /// {"traceEvents": [...], "displayTimeUnit": "ms"}.
  [[nodiscard]] util::Json to_chrome_json() const;

  void clear();

 private:
  std::size_t max_events_;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::uint64_t dropped_ = 0;
};

/// RAII wall-clock span. Construct against a tracer (or the global tracer
/// via the obs.hpp helper) and the span is recorded at scope exit. A
/// default-constructed / nullptr-tracer span is an inert no-op.
///
/// An active span allocates a SpanContext parented to the thread's current
/// context, installs itself as current for its lifetime (children created in
/// scope nest under it), and — inside a pool task — picks up region_id /
/// task_index attributes from the TaskScope.
class ScopedSpan {
 public:
  ScopedSpan() = default;
  ScopedSpan(SpanTracer* tracer, std::string name, std::string category = "");
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ScopedSpan(ScopedSpan&& other) noexcept;
  ScopedSpan& operator=(ScopedSpan&& other) noexcept;
  ~ScopedSpan();

  /// Attach a numeric argument (shown in the trace viewer's args pane).
  void set_arg(std::string key, double value);
  /// Attach a string argument (channel, model_id, fault kind, ...).
  void set_attr(std::string key, std::string value);
  /// Cross-reference the simulation clock at span end.
  void set_virtual_ns(sim::TimeNs t) { virtual_ns_ = t.ns; }

  [[nodiscard]] bool active() const { return tracer_ != nullptr; }
  /// This span's causal identity (all-zero for inert spans).
  [[nodiscard]] const SpanContext& context() const { return ctx_; }

  /// Record now instead of at destruction.
  void finish();

 private:
  SpanTracer* tracer_ = nullptr;
  std::string name_;
  std::string category_;
  double start_us_ = 0.0;
  std::int64_t virtual_ns_ = -1;
  SpanContext ctx_;
  SpanContext prev_ctx_;
  bool installed_ = false;
  std::vector<std::pair<std::string, double>> args_;
  std::vector<std::pair<std::string, std::string>> str_args_;
};

/// Stable small integer for the calling thread (used as Chrome "tid").
std::uint64_t current_thread_tid();

}  // namespace amperebleed::obs
