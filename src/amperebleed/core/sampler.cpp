#include "amperebleed/core/sampler.hpp"

#include <algorithm>

#include "amperebleed/obs/obs.hpp"
#include "amperebleed/obs/quality.hpp"
#include "amperebleed/util/rng.hpp"
#include "amperebleed/util/strings.hpp"

namespace amperebleed::core {

Sampler::Sampler(soc::Soc& soc, Principal principal)
    : soc_(soc), principal_(std::move(principal)) {
  if (!soc.finalized()) {
    throw std::logic_error("Sampler: SoC must be finalized first");
  }
}

Sampler::Sampler(Sampler&& other) noexcept
    : soc_(other.soc_), principal_(std::move(other.principal_)) {
  // Fresh mutexes for this object; the cached/accumulated state transfers.
  // Guarding the source keeps the handover well-defined if the source had
  // been shared (concurrent use of the source during the move is still
  // unsupported).
  {
    std::lock_guard<std::mutex> lock(other.res_mu_);
    resilience_ = std::move(other.resilience_);
    stats_ = other.stats_;
    health_ = std::move(other.health_);
  }
  std::lock_guard<std::mutex> lock(other.stale_mu_);
  last_raw_ = std::move(other.last_raw_);
}

Sampler::RawRead Sampler::read_raw(const Channel& channel) {
  // Label this read's audit records with the sampler's identity; every read
  // path — strict, retried, fallback, probe — comes through here, so all of
  // them are audit-logged and metered identically.
  std::optional<obs::PrincipalScope> scope;
  if (obs::audit_enabled()) scope.emplace(principal_.name);

  const bool instrumented = obs::metrics_enabled();
  const std::int64_t t0 = instrumented ? obs::tracer().wall_now_ns() : 0;

  RawRead out;
  const int index = soc_.hwmon_index(channel.rail);
  out.path = soc_.hwmon().attr_path(index, quantity_attr(channel.quantity));
  const auto result = soc_.hwmon().fs().read(out.path, principal_.privileged);
  out.status = result.status;

  if (instrumented) {
    obs::count("sampler.reads");
    obs::observe("sampler.poll_latency_ns",
                 static_cast<double>(obs::tracer().wall_now_ns() - t0));
  }
  if (result.status == hwmon::VfsStatus::PermissionDenied) {
    obs::count("sampler.denied");
    return out;
  }
  if (!result.ok()) {
    obs::count("sampler.read_failures");
    return out;
  }
  if (instrumented) {
    // Stale-register detection: polling faster than the sensor's conversion
    // cadence re-reads the latest completed conversion, so the raw text
    // repeats. (A genuine repeat of the measured value counts too — at mA
    // LSBs under board noise that is rare, so this is a faithful proxy.)
    // The cache is mutex-guarded (pool-shared samplers) and bounded: at
    // kStaleCacheCap entries it is flushed rather than growing forever,
    // costing at most one missed stale detection per flushed path.
    std::lock_guard<std::mutex> lock(stale_mu_);
    const auto it = last_raw_.find(out.path);
    if (it != last_raw_.end()) {
      if (it->second == result.data && !result.data.empty()) {
        obs::count("sampler.stale_reads");
      }
      it->second = result.data;
    } else {
      if (last_raw_.size() >= kStaleCacheCap) {
        last_raw_.clear();
        obs::count("sampler.stale_cache_flushes");
      }
      last_raw_.emplace(out.path, result.data);
    }
  }

  const auto value = util::parse_ll(result.data);
  if (!value) {
    obs::count("sampler.parse_failures");
    out.malformed = true;
    return out;
  }
  out.ok = true;
  out.value = static_cast<double>(*value);
  return out;
}

void Sampler::throw_for(const RawRead& r, const Channel& channel,
                        std::size_t attempts) const {
  // The mitigation-policy denial keeps its legacy type and text: the
  // ablation study distinguishes "the policy stopped me" from acquisition
  // flakiness by exactly this error.
  if (r.status == hwmon::VfsStatus::PermissionDenied) {
    throw SamplingError("hwmon read denied: " + r.path);
  }
  const std::string cname = channel_name(channel);
  if (r.malformed) {
    throw MalformedData(
        util::format("hwmon attribute not numeric: %s [channel=%s, %zu "
                     "attempt(s)]",
                     r.path.c_str(), cname.c_str(), attempts),
        channel, r.path, attempts);
  }
  if (r.status == hwmon::VfsStatus::NotFound) {
    throw ChannelGone(
        util::format("hwmon attribute gone (not-found): %s [channel=%s, %zu "
                     "attempt(s)]",
                     r.path.c_str(), cname.c_str(), attempts),
        channel, r.path, attempts);
  }
  if (r.status == hwmon::VfsStatus::TryAgain) {
    throw TransientError(
        util::format("hwmon read failed (try-again): %s [channel=%s, %zu "
                     "attempt(s)]",
                     r.path.c_str(), cname.c_str(), attempts),
        channel, r.path, attempts);
  }
  throw SamplingError("hwmon read failed (" +
                      std::string(vfs_status_name(r.status)) +
                      "): " + r.path);
}

Sampler::RawRead Sampler::read_with_retry(const Channel& channel,
                                          sim::TimeNs* trace_backoff_left,
                                          std::size_t* attempts_out) {
  const RetryPolicy& rp = resilience_.retry;
  const std::size_t max_attempts = std::max<std::size_t>(1, rp.max_attempts);
  const bool instrumented = obs::metrics_enabled();
  sim::TimeNs sample_spent{0};
  std::uint64_t stream = 0;

  RawRead r;
  for (std::size_t attempt = 1;; ++attempt) {
    r = read_raw(channel);
    *attempts_out = attempt;
    if (r.ok || attempt >= max_attempts) return r;

    // Jitter stream: stable per path, so retry schedules replay no matter
    // how channels interleave.
    if (stream == 0) stream = util::fnv1a(r.path);
    const sim::TimeNs wait = rp.backoff(attempt, stream);
    if (rp.per_sample_deadline.ns > 0 &&
        sample_spent.ns + wait.ns > rp.per_sample_deadline.ns) {
      std::lock_guard<std::mutex> lock(res_mu_);
      ++stats_.deadline_failures;
      if (instrumented) obs::count("sampler.deadline_failures");
      return r;
    }
    if (trace_backoff_left != nullptr && wait.ns > trace_backoff_left->ns) {
      // Per-trace backoff budget exhausted: fail this (and, in practice,
      // every later) sample fast instead of stretching the collection.
      std::lock_guard<std::mutex> lock(res_mu_);
      ++stats_.deadline_failures;
      if (instrumented) obs::count("sampler.deadline_failures");
      return r;
    }
    sample_spent.ns += wait.ns;
    if (trace_backoff_left != nullptr) trace_backoff_left->ns -= wait.ns;
    {
      std::lock_guard<std::mutex> lock(res_mu_);
      ++stats_.retries;
    }
    if (instrumented) {
      obs::count("sampler.retries");
      obs::observe("sampler.retry_backoff_ns", static_cast<double>(wait.ns));
    }
    // The backoff wait is virtual time: the board keeps running while the
    // attacker sleeps, exactly as on real silicon.
    if (wait.ns > 0) {
      soc_.advance_to(sim::TimeNs{soc_.now().ns + wait.ns});
    }
  }
}

void Sampler::publish_health(const Channel& channel, ChannelHealth h) const {
  if (!obs::metrics_enabled()) return;
  obs::metrics()
      .gauge(util::format("sampler.health.%s", channel_name(channel).c_str()))
      .set(static_cast<double>(static_cast<int>(h)));
}

Sampler::HealthState& Sampler::health_state_locked(const Channel& channel) {
  const auto [it, inserted] = health_.try_emplace(health_key(channel));
  if (inserted) publish_health(channel, it->second.state);
  return it->second;
}

void Sampler::note_sample_result_locked(const Channel& channel, bool ok) {
  HealthState& hs = health_state_locked(channel);
  const ChannelHealth before = hs.state;
  if (ok) {
    hs.consecutive_failures = 0;
    hs.skipped = 0;
    hs.state = ChannelHealth::Healthy;
  } else {
    ++stats_.failed_samples;
    ++hs.consecutive_failures;
    if (hs.consecutive_failures >= resilience_.health.quarantine_after) {
      if (hs.state != ChannelHealth::Quarantined) hs.skipped = 0;
      hs.state = ChannelHealth::Quarantined;
    } else if (hs.consecutive_failures >= resilience_.health.degrade_after) {
      hs.state = ChannelHealth::Degraded;
    }
  }
  if (hs.state != before) {
    publish_health(channel, hs.state);
    if (hs.state == ChannelHealth::Quarantined) {
      obs::count("sampler.quarantines");
    }
  }
}

ChannelHealth Sampler::health(const Channel& channel) const {
  std::lock_guard<std::mutex> lock(res_mu_);
  const auto it = health_.find(health_key(channel));
  return it == health_.end() ? ChannelHealth::Healthy : it->second.state;
}

SamplerStats Sampler::stats() const {
  std::lock_guard<std::mutex> lock(res_mu_);
  return stats_;
}

double Sampler::read_now(const Channel& channel) {
  if (!resilience_.enabled) {
    // Strict legacy semantics: one attempt, any failure throws.
    RawRead r = read_raw(channel);
    if (!r.ok) throw_for(r, channel, 1);
    return r.value;
  }
  std::size_t attempts = 0;
  RawRead r = read_with_retry(channel, nullptr, &attempts);
  if (obs::metrics_enabled() && attempts > 1) {
    obs::observe("sampler.retry_attempts", static_cast<double>(attempts));
  }
  {
    std::lock_guard<std::mutex> lock(res_mu_);
    note_sample_result_locked(channel, r.ok);
  }
  if (!r.ok) throw_for(r, channel, attempts);
  return r.value;
}

void Sampler::sample_resilient(const Channel& channel, Trace& trace,
                               sim::TimeNs* trace_backoff_left) {
  const bool instrumented = obs::metrics_enabled();

  // Quarantine gate: a quarantined channel is not polled at all until its
  // probe window elapses — stop hammering a dead attribute.
  enum class Action { Poll, Probe, Skip };
  Action action = Action::Poll;
  {
    std::lock_guard<std::mutex> lock(res_mu_);
    HealthState& hs = health_state_locked(channel);
    if (hs.state == ChannelHealth::Quarantined) {
      ++hs.skipped;
      if (hs.skipped >= resilience_.health.probe_after) {
        hs.skipped = 0;
        hs.state = ChannelHealth::Probing;
        publish_health(channel, ChannelHealth::Probing);
        action = Action::Probe;
      } else {
        action = Action::Skip;
      }
    }
  }

  bool have_value = false;
  double value = 0.0;
  if (action == Action::Poll) {
    std::size_t attempts = 0;
    RawRead r = read_with_retry(channel, trace_backoff_left, &attempts);
    if (instrumented && attempts > 1) {
      obs::observe("sampler.retry_attempts", static_cast<double>(attempts));
    }
    {
      std::lock_guard<std::mutex> lock(res_mu_);
      note_sample_result_locked(channel, r.ok);
    }
    have_value = r.ok;
    value = r.value;
  } else if (action == Action::Probe) {
    // Single-shot recovery probe; success re-opens the channel, failure
    // re-quarantines it for another probe window.
    RawRead r = read_raw(channel);
    {
      std::lock_guard<std::mutex> lock(res_mu_);
      ++stats_.probes;
      HealthState& hs = health_state_locked(channel);
      if (r.ok) {
        hs.state = ChannelHealth::Healthy;
        hs.consecutive_failures = 0;
      } else {
        hs.state = ChannelHealth::Quarantined;
      }
      publish_health(channel, hs.state);
    }
    if (instrumented) obs::count("sampler.probes");
    have_value = r.ok;
    value = r.value;
  }

  if (have_value) {
    trace.push(value);
    return;
  }

  // Primary failed (or is quarantined): substitute the best available
  // fallback channel (Table III accuracy order), else record a gap.
  if (resilience_.fallback_enabled) {
    for (const Channel& fb : fallback_chain(channel)) {
      RawRead r = read_raw(fb);
      if (r.ok) {
        {
          std::lock_guard<std::mutex> lock(res_mu_);
          ++stats_.fallback_substitutions;
        }
        if (instrumented) obs::count("sampler.fallback_substitutions");
        trace.push(r.value);
        return;
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(res_mu_);
    ++stats_.gap_samples;
  }
  if (instrumented) obs::count("sampler.gap_samples");
  trace.push_gap();
}

std::size_t Sampler::stale_cache_size() const {
  std::lock_guard<std::mutex> lock(stale_mu_);
  return last_raw_.size();
}

Trace Sampler::collect(const Channel& channel, sim::TimeNs start,
                       const SamplerConfig& config) {
  auto traces = collect_multi({channel}, start, config);
  return std::move(traces.front());
}

std::vector<Trace> Sampler::collect_multi(const std::vector<Channel>& channels,
                                          sim::TimeNs start,
                                          const SamplerConfig& config) {
  auto span = obs::span("sampler.collect", "sampler");
  span.set_arg("channels", static_cast<double>(channels.size()));
  span.set_arg("samples", static_cast<double>(config.sample_count));
  span.set_arg("period_ms", config.period.millis());
  if (span.active() && !channels.empty()) {
    std::string joined = channel_name(channels.front());
    for (std::size_t c = 1; c < channels.size(); ++c) {
      joined += ',';
      joined += channel_name(channels[c]);
    }
    span.set_attr("channel", std::move(joined));
  }

  const bool instrumented = obs::metrics_enabled();
  const std::int64_t entry_now_ns = instrumented ? soc_.now().ns : 0;
  const bool resilient = resilience_.enabled;
  std::int64_t prev_poll_ns = -1;

  // Shared per-trace backoff budget (0 deadline = unlimited → no budget).
  sim::TimeNs trace_budget = resilience_.retry.per_trace_deadline;
  sim::TimeNs* trace_backoff_left =
      resilient && trace_budget.ns > 0 ? &trace_budget : nullptr;

  std::vector<Trace> traces;
  traces.reserve(channels.size());
  for (const auto& c : channels) {
    traces.emplace_back(c, start, config.period);
    traces.back().reserve(config.sample_count);
  }
  for (std::size_t i = 0; i < config.sample_count; ++i) {
    const sim::TimeNs t{start.ns +
                        config.period.ns * static_cast<std::int64_t>(i)};
    // Backoff waits may already have pushed the virtual clock past this
    // instant; the poll then simply happens late (cadence slip, exactly as
    // on a real board). Strict mode keeps the legacy unclamped call — and
    // with it the legacy backwards-time error for bad start times.
    if (!resilient || t.ns > soc_.now().ns) soc_.advance_to(t);
    if (instrumented) {
      // Host-side cadence jitter: wall time between successive poll rounds.
      const std::int64_t now_ns = obs::tracer().wall_now_ns();
      if (prev_poll_ns >= 0) {
        obs::observe("sampler.poll_interval_wall_ns",
                     static_cast<double>(now_ns - prev_poll_ns));
      }
      prev_poll_ns = now_ns;
    }
    for (std::size_t c = 0; c < channels.size(); ++c) {
      // Virtual nanoseconds this one sample consumed beyond the scheduled
      // cadence — 0 on a clean read, the summed backoff waits when faults
      // forced retries. This is the acquire-latency SLI: deterministic (it
      // measures the simulation clock, not the host), so SLO compliance is
      // bit-reproducible for a given seed and fault plan.
      const std::int64_t sample_v0 = instrumented ? soc_.now().ns : 0;
      if (resilient) {
        sample_resilient(channels[c], traces[c], trace_backoff_left);
      } else {
        traces[c].push(read_now(channels[c]));
      }
      if (instrumented) {
        obs::observe("sampler.sample_acquire_vns",
                     static_cast<double>(soc_.now().ns - sample_v0));
      }
    }
  }
  if (instrumented) {
    obs::count("sampler.collections");
    // Feed the SLO engine's virtual clock with the simulated time this
    // collection spanned, so burn-rate windows advance in virtual seconds.
    const std::int64_t consumed_ns = soc_.now().ns - entry_now_ns;
    if (consumed_ns > 0) {
      obs::slos().advance(static_cast<double>(consumed_ns) * 1e-9);
    }
  }
  if (obs::quality_enabled()) {
    // Data-quality pass: per-channel gap/clip/freeze tallies, correlated
    // with the health tracker's current verdict. Channels are visited in
    // collection order, so the quality snapshot is deterministic.
    for (std::size_t c = 0; c < channels.size(); ++c) {
      obs::quality_hub().data_quality().note_trace(
          channel_name(channels[c]), traces[c].values(), traces[c].validity(),
          static_cast<int>(health(channels[c])));
    }
  }
  span.set_virtual_ns(soc_.now());
  return traces;
}

}  // namespace amperebleed::core
