#include "amperebleed/obs/span.hpp"

#include <atomic>
#include <fstream>
#include <stdexcept>

namespace amperebleed::obs {

namespace {

constexpr std::int64_t kWallPid = 1;
constexpr std::int64_t kVirtualPid = 2;

}  // namespace

std::uint64_t current_thread_tid() {
  static std::atomic<std::uint64_t> next{1};
  thread_local std::uint64_t tid = next.fetch_add(1);
  return tid;
}

SpanTracer::SpanTracer(std::size_t max_events)
    : max_events_(max_events), epoch_(std::chrono::steady_clock::now()) {}

void SpanTracer::add_event(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= max_events_) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(event));
}

void SpanTracer::add_virtual_span(
    std::string name, std::string category, sim::TimeNs start,
    sim::TimeNs duration, std::vector<std::pair<std::string, double>> args) {
  TraceEvent e;
  e.name = std::move(name);
  e.category = std::move(category);
  e.clock = SpanClock::Virtual;
  e.ts_us = static_cast<double>(start.ns) * 1e-3;
  e.dur_us = static_cast<double>(duration.ns) * 1e-3;
  e.tid = current_thread_tid();
  e.other_clock_ns = wall_now_ns();
  e.args = std::move(args);
  add_event(std::move(e));
}

void SpanTracer::add_flow_event(char phase, std::uint64_t flow_id,
                                std::string name, std::string category) {
  TraceEvent e;
  e.name = std::move(name);
  e.category = std::move(category);
  e.clock = SpanClock::Wall;
  e.phase = phase;
  e.flow_id = flow_id;
  e.ts_us = wall_now_us();
  e.tid = current_thread_tid();
  add_event(std::move(e));
}

double SpanTracer::wall_now_us() const {
  return static_cast<double>(wall_now_ns()) * 1e-3;
}

std::int64_t SpanTracer::wall_now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

std::size_t SpanTracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::uint64_t SpanTracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::vector<TraceEvent> SpanTracer::events_snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

util::Json SpanTracer::to_chrome_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  auto events = util::Json::array();

  // Metadata: name the two clock-domain "processes".
  const auto process_name = [](std::int64_t pid, const char* name) {
    auto m = util::Json::object();
    m.set("name", util::Json::string("process_name"));
    m.set("ph", util::Json::string("M"));
    m.set("pid", util::Json::integer(pid));
    m.set("tid", util::Json::integer(0));
    auto args = util::Json::object();
    args.set("name", util::Json::string(name));
    m.set("args", std::move(args));
    return m;
  };
  events.push_back(process_name(kWallPid, "wall-clock"));
  events.push_back(process_name(kVirtualPid, "virtual-time"));

  for (const auto& e : events_) {
    auto j = util::Json::object();
    j.set("name", util::Json::string(e.name));
    if (!e.category.empty()) {
      j.set("cat", util::Json::string(e.category));
    }
    j.set("ph", util::Json::string(std::string(1, e.phase)));
    j.set("pid", util::Json::integer(
                     e.clock == SpanClock::Wall ? kWallPid : kVirtualPid));
    j.set("tid", util::Json::integer(static_cast<std::int64_t>(e.tid)));
    j.set("ts", util::Json::number(e.ts_us));
    if (e.phase == 's' || e.phase == 'f') {
      // Flow events bind under their id; "bp":"e" makes the finish attach to
      // the enclosing slice instead of requiring an exact ts match.
      j.set("id", util::Json::integer(static_cast<std::int64_t>(e.flow_id)));
      if (e.phase == 'f') j.set("bp", util::Json::string("e"));
      events.push_back(std::move(j));
      continue;
    }
    j.set("dur", util::Json::number(e.dur_us));
    auto args = util::Json::object();
    if (e.other_clock_ns >= 0) {
      args.set(e.clock == SpanClock::Wall ? "virtual_ns" : "wall_ns",
               util::Json::integer(e.other_clock_ns));
    }
    if (e.span_id != 0) {
      args.set("trace_id",
               util::Json::integer(static_cast<std::int64_t>(e.trace_id)));
      args.set("span_id",
               util::Json::integer(static_cast<std::int64_t>(e.span_id)));
      args.set("parent_id",
               util::Json::integer(static_cast<std::int64_t>(e.parent_id)));
    }
    for (const auto& [key, value] : e.args) {
      args.set(key, util::Json::number(value));
    }
    for (const auto& [key, value] : e.str_args) {
      args.set(key, util::Json::string(value));
    }
    if (args.size() > 0) j.set("args", std::move(args));
    events.push_back(std::move(j));
  }

  auto root = util::Json::object();
  root.set("traceEvents", std::move(events));
  root.set("displayTimeUnit", util::Json::string("ms"));
  if (dropped_ > 0) {
    root.set("droppedEvents",
             util::Json::integer(static_cast<std::int64_t>(dropped_)));
  }
  return root;
}

void SpanTracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("SpanTracer: cannot open '" + path + "'");
  }
  out << to_chrome_json().dump(1) << "\n";
}

void SpanTracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  dropped_ = 0;
}

// ---------------------------------------------------------------------------
// ScopedSpan

ScopedSpan::ScopedSpan(SpanTracer* tracer, std::string name,
                       std::string category)
    : tracer_(tracer), name_(std::move(name)), category_(std::move(category)) {
  if (tracer_ == nullptr) return;
  start_us_ = tracer_->wall_now_us();
  const SpanContext& parent = current_context();
  ctx_.trace_id = parent.trace_id != 0 ? parent.trace_id : new_trace_id();
  ctx_.parent_id = parent.span_id;
  ctx_.span_id = next_span_id();
  prev_ctx_ = detail::exchange_context(ctx_);
  installed_ = true;
  const TaskSlot& slot = current_task_slot();
  if (slot.active) {
    args_.emplace_back("region_id", static_cast<double>(slot.region_id));
    args_.emplace_back("task_index", static_cast<double>(slot.task_index));
  }
}

ScopedSpan::ScopedSpan(ScopedSpan&& other) noexcept
    : tracer_(other.tracer_),
      name_(std::move(other.name_)),
      category_(std::move(other.category_)),
      start_us_(other.start_us_),
      virtual_ns_(other.virtual_ns_),
      ctx_(other.ctx_),
      prev_ctx_(other.prev_ctx_),
      installed_(other.installed_),
      args_(std::move(other.args_)),
      str_args_(std::move(other.str_args_)) {
  other.tracer_ = nullptr;
  other.installed_ = false;
}

ScopedSpan& ScopedSpan::operator=(ScopedSpan&& other) noexcept {
  if (this != &other) {
    finish();
    tracer_ = other.tracer_;
    name_ = std::move(other.name_);
    category_ = std::move(other.category_);
    start_us_ = other.start_us_;
    virtual_ns_ = other.virtual_ns_;
    ctx_ = other.ctx_;
    prev_ctx_ = other.prev_ctx_;
    installed_ = other.installed_;
    args_ = std::move(other.args_);
    str_args_ = std::move(other.str_args_);
    other.tracer_ = nullptr;
    other.installed_ = false;
  }
  return *this;
}

ScopedSpan::~ScopedSpan() { finish(); }

void ScopedSpan::set_arg(std::string key, double value) {
  if (tracer_ != nullptr) args_.emplace_back(std::move(key), value);
}

void ScopedSpan::set_attr(std::string key, std::string value) {
  if (tracer_ != nullptr) {
    str_args_.emplace_back(std::move(key), std::move(value));
  }
}

void ScopedSpan::finish() {
  if (tracer_ == nullptr) return;
  if (installed_) {
    // Spans nest LIFO on a thread; restoring the saved previous context
    // re-parents subsequent siblings correctly.
    detail::exchange_context(prev_ctx_);
    installed_ = false;
  }
  TraceEvent e;
  e.name = std::move(name_);
  e.category = std::move(category_);
  e.clock = SpanClock::Wall;
  e.ts_us = start_us_;
  e.dur_us = tracer_->wall_now_us() - start_us_;
  e.tid = current_thread_tid();
  e.trace_id = ctx_.trace_id;
  e.span_id = ctx_.span_id;
  e.parent_id = ctx_.parent_id;
  e.other_clock_ns = virtual_ns_;
  e.args = std::move(args_);
  e.str_args = std::move(str_args_);
  tracer_->add_event(std::move(e));
  tracer_ = nullptr;
}

}  // namespace amperebleed::obs
