#include "amperebleed/obs/profile.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "amperebleed/obs/obs.hpp"

namespace amperebleed::obs {

namespace {

const char* kStageNames[kStageCount] = {"acquire", "preprocess", "features",
                                        "classify"};

}  // namespace

const char* stage_name(Stage stage) {
  const auto i = static_cast<std::size_t>(stage);
  return i < kStageCount ? kStageNames[i] : "unknown";
}

// ---------------------------------------------------------------------------
// StageSpan

StageSpan::StageSpan(Stage stage) : stage_(stage) {
  if (!metrics_enabled() && !tracing_enabled()) return;
  measuring_ = true;
  span_ = obs::span(std::string("pipeline.") + stage_name(stage), "pipeline");
  t0_ns_ = tracer().wall_now_ns();
}

void StageSpan::finish() {
  if (!measuring_) return;
  measuring_ = false;
  const double wall_ns =
      static_cast<double>(tracer().wall_now_ns() - t0_ns_);
  span_.finish();
  if (metrics_enabled()) {
    observe((std::string("pipeline.stage.") + stage_name(stage_) + "_ns")
                .c_str(),
            wall_ns);
  }
}

// ---------------------------------------------------------------------------
// Collapsed-stack profiler

std::string collapsed_stacks_text(const SpanTracer& tracer) {
  const std::vector<TraceEvent> events = tracer.events_snapshot();

  // Index completed wall spans by span_id; accumulate direct-children time
  // so each span folds at SELF time.
  std::unordered_map<std::uint64_t, const TraceEvent*> by_id;
  by_id.reserve(events.size());
  for (const auto& e : events) {
    if (e.phase != 'X' || e.clock != SpanClock::Wall || e.span_id == 0) {
      continue;
    }
    by_id.emplace(e.span_id, &e);
  }
  std::unordered_map<std::uint64_t, double> children_us;
  for (const auto& [id, e] : by_id) {
    (void)id;
    if (e->parent_id != 0 && by_id.count(e->parent_id) != 0) {
      children_us[e->parent_id] += e->dur_us;
    }
  }

  std::map<std::string, double> folded;
  std::vector<const TraceEvent*> chain;
  for (const auto& [id, e] : by_id) {
    // Root-first stack; a missing parent (unfinished or dropped span) simply
    // starts the stack there. The depth cap guards malformed parent loops.
    chain.clear();
    const TraceEvent* cursor = e;
    while (cursor != nullptr && chain.size() < 128) {
      chain.push_back(cursor);
      const auto parent = by_id.find(cursor->parent_id);
      cursor = parent == by_id.end() ? nullptr : parent->second;
    }
    std::string stack;
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      if (!stack.empty()) stack += ';';
      stack += (*it)->name;
    }
    const auto child_it = children_us.find(id);
    const double overlap = child_it == children_us.end() ? 0.0
                                                         : child_it->second;
    folded[stack] += std::max(0.0, e->dur_us - overlap);
  }

  std::string out;
  for (const auto& [stack, self_us] : folded) {
    const auto rounded = static_cast<long long>(std::llround(self_us));
    out += stack + " " + std::to_string(rounded) + "\n";
  }
  return out;
}

}  // namespace amperebleed::obs
