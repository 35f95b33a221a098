#include "amperebleed/obs/obs.hpp"

#include "amperebleed/obs/quality.hpp"

namespace amperebleed::obs {

namespace detail {
std::atomic<bool> g_metrics_on{false};
std::atomic<bool> g_tracing_on{false};
std::atomic<bool> g_audit_on{false};
std::atomic<bool> g_quality_on{false};
}  // namespace detail

MetricsRegistry& metrics() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

SpanTracer& tracer() {
  static SpanTracer* t = new SpanTracer();
  return *t;
}

AccessAuditLog& audit_log() {
  static AccessAuditLog* log = new AccessAuditLog();
  return *log;
}

void init(const ObsConfig& config) {
  detail::g_metrics_on.store(config.enabled && config.metrics,
                             std::memory_order_relaxed);
  detail::g_tracing_on.store(config.enabled && config.tracing,
                             std::memory_order_relaxed);
  detail::g_audit_on.store(config.enabled && config.audit,
                           std::memory_order_relaxed);
  detail::g_quality_on.store(config.enabled && config.quality,
                             std::memory_order_relaxed);
}

void disable() { init(ObsConfig{.enabled = false}); }

void reset_data() {
  metrics().reset();
  tracer().clear();
  audit_log().clear();
  slos().reset();
  quality_hub().reset();
}

void shutdown() {
  disable();
  reset_data();
}

}  // namespace amperebleed::obs
