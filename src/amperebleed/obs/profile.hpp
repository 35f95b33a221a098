#pragma once
// Per-stage pipeline attribution + span-derived continuous profiling.
//
// The fingerprinting request path is staged exactly like the paper's
// Table III pipeline: acquire (sensor polling) → preprocess (gap filling) →
// features (dataset assembly) → classify (forest fit / predict). StageSpan
// instruments one unit of stage work: it opens a causal trace span named
// `pipeline.<stage>` (when tracing is on) and folds the wall duration into
// a `pipeline.stage.<stage>_ns` histogram (when metrics are on) — the one
// copy of stage latency that the run record, /metrics and the SLOs read.
//
// The profiler half turns a SpanTracer's completed wall spans into
// collapsed-stack lines ("root;ml.rf.fit;ml.tree_fit 450"), the input format
// of flame-graph renderers. Folding is by SELF time (duration minus the sum
// of direct children), clamped at zero: with a single-threaded pool every
// subtree then sums exactly to its root. Overlapping children from parallel
// pool tasks can push a parent's self time to the zero clamp — wall time is
// not additive across threads, which is exactly what the flame graph should
// show.

#include <cstdint>
#include <string>

#include "amperebleed/obs/span.hpp"

namespace amperebleed::obs {

enum class Stage { Acquire = 0, Preprocess = 1, Features = 2, Classify = 3 };
inline constexpr std::size_t kStageCount = 4;

/// Lowercase stage name ("acquire", "preprocess", "features", "classify").
const char* stage_name(Stage stage);

/// RAII instrumentation for one unit of pipeline-stage work. Inert when the
/// whole obs layer is off; otherwise traces a `pipeline.<stage>` span and
/// records the duration at scope exit.
class StageSpan {
 public:
  explicit StageSpan(Stage stage);
  ~StageSpan() { finish(); }
  StageSpan(const StageSpan&) = delete;
  StageSpan& operator=(const StageSpan&) = delete;

  /// The underlying trace span (inert when tracing is off) — attach channel
  /// / model_id / fold attributes here.
  [[nodiscard]] ScopedSpan& span() { return span_; }

  void finish();

 private:
  Stage stage_ = Stage::Acquire;
  bool measuring_ = false;
  std::int64_t t0_ns_ = 0;
  ScopedSpan span_;
};

// ---------------------------------------------------------------------------
// Collapsed-stack profiler

/// Fold a tracer's completed wall spans into collapsed-stack lines:
/// "name;child;grandchild <self-microseconds>\n", sorted by stack for
/// deterministic diffs. Root-less spans (parent not in the buffer) start
/// their own stack. Flow events and virtual-time spans are ignored.
std::string collapsed_stacks_text(const SpanTracer& tracer);

}  // namespace amperebleed::obs
