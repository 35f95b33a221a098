#pragma once
// Process-wide observability context. Off by default: every instrumentation
// site first checks a relaxed atomic flag, so with ObsConfig{enabled=false}
// (the default) the whole layer costs one predicted-not-taken branch per
// site and experiments stay bit-identical to an uninstrumented build.
//
//   obs::init();                               // or init(config)
//   ... run experiment ...
//   util::atomic_write_file("m.json", obs::metrics().snapshot_text());
//   util::atomic_write_file("t.json", obs::tracer().to_chrome_json().dump(1));
//   util::atomic_write_file("a.json", obs::audit_log().to_json().dump(2));
//   obs::shutdown();
//
// The registries themselves always exist (so tests can poke them directly);
// the flags only gate whether the library's instrumentation records into
// them.

#include <atomic>
#include <cstdint>
#include <string>

#include "amperebleed/obs/audit.hpp"
#include "amperebleed/obs/context.hpp"
#include "amperebleed/obs/metrics.hpp"
#include "amperebleed/obs/profile.hpp"
#include "amperebleed/obs/slo.hpp"
#include "amperebleed/obs/span.hpp"

namespace amperebleed::obs {

struct ObsConfig {
  bool enabled = false;  // master switch
  // Sub-layer switches (only effective while enabled).
  bool metrics = true;
  bool tracing = true;
  bool audit = true;
  // Quality monitoring (drift + data-quality, see quality.hpp) is strictly
  // opt-in: unlike the layers above it stays OFF even when enabled=true,
  // because it adds per-trace and per-classification work to hot paths.
  bool quality = false;
};

namespace detail {
extern std::atomic<bool> g_metrics_on;
extern std::atomic<bool> g_tracing_on;
extern std::atomic<bool> g_audit_on;
extern std::atomic<bool> g_quality_on;
}  // namespace detail

/// Apply `config` (default: everything on). Does not clear prior data —
/// call reset() for a clean slate.
void init(const ObsConfig& config = ObsConfig{.enabled = true});

/// Disable all recording (flags only; data stays readable).
void disable();

/// Disable and drop all recorded data (metrics, spans, audit events).
void shutdown();

/// Drop all recorded data but keep the current enable flags.
void reset_data();

[[nodiscard]] inline bool metrics_enabled() {
  return detail::g_metrics_on.load(std::memory_order_relaxed);
}
[[nodiscard]] inline bool tracing_enabled() {
  return detail::g_tracing_on.load(std::memory_order_relaxed);
}
[[nodiscard]] inline bool audit_enabled() {
  return detail::g_audit_on.load(std::memory_order_relaxed);
}
[[nodiscard]] inline bool quality_enabled() {
  return detail::g_quality_on.load(std::memory_order_relaxed);
}
[[nodiscard]] inline bool enabled() {
  return metrics_enabled() || tracing_enabled() || audit_enabled() ||
         quality_enabled();
}

/// Global registries (constructed on first use, never destroyed before
/// program exit).
MetricsRegistry& metrics();
SpanTracer& tracer();
AccessAuditLog& audit_log();

// ---------------------------------------------------------------------------
// Convenience helpers for instrumentation sites. All of them no-op when the
// corresponding layer is disabled.

inline void count(const char* name, std::uint64_t n = 1) {
  if (!metrics_enabled()) return;
  metrics().counter(name).inc(n);
}

inline void gauge_set(const char* name, double v) {
  if (!metrics_enabled()) return;
  metrics().gauge(name).set(v);
}

inline void observe(const char* name, double v) {
  if (!metrics_enabled()) return;
  metrics().histogram(name).observe(v);
}

/// A wall-clock span against the global tracer; inert when tracing is off.
[[nodiscard]] inline ScopedSpan span(std::string name,
                                     std::string category = "") {
  if (!tracing_enabled()) return ScopedSpan();
  return ScopedSpan(&tracer(), std::move(name), std::move(category));
}

/// Record an instantaneous (zero-duration) wall event parented to the
/// calling thread's current span — fault injections, state transitions.
inline void instant(std::string name, std::string category = "") {
  if (!tracing_enabled()) return;
  ScopedSpan s(&tracer(), std::move(name), std::move(category));
  s.finish();
}

/// Record a cross-thread flow edge ('s' on the submitter, 'f' on a worker)
/// against the global tracer; inert when tracing is off.
inline void flow(char phase, std::uint64_t id, const char* name,
                 const char* category = "pool") {
  if (!tracing_enabled()) return;
  tracer().add_flow_event(phase, id, name, category);
}

/// Record a virtual-time span against the global tracer.
inline void virtual_span(
    std::string name, std::string category, sim::TimeNs start,
    sim::TimeNs duration,
    std::vector<std::pair<std::string, double>> args = {}) {
  if (!tracing_enabled()) return;
  tracer().add_virtual_span(std::move(name), std::move(category), start,
                            duration, std::move(args));
}

/// Audit one sensor-interface access at virtual time `t`.
inline void audit_access(sim::TimeNs t, std::string_view path,
                         bool privileged, AccessOutcome outcome) {
  if (!audit_enabled()) return;
  audit_log().record(t, path, privileged, outcome);
}

}  // namespace amperebleed::obs
