#include "amperebleed/faults/faults.hpp"

#include <cstdlib>
#include <numeric>

#include "amperebleed/obs/obs.hpp"
#include "amperebleed/util/cli.hpp"
#include "amperebleed/util/rng.hpp"
#include "amperebleed/util/strings.hpp"

namespace amperebleed::faults {

namespace {

using util::fnv1a;

/// Deterministic garbage texts — what corrupted sysfs reads actually look
/// like: binary junk, stale prompt fragments, half-written numbers.
constexpr std::string_view kGarbage[] = {
    "#!\x01\x7f\n", "nan\n", "0x1f4z\n", "--\n", "\n",
};

}  // namespace

std::string_view fault_kind_name(FaultKind k) {
  static_assert(kFaultKindCount == 7,
                "new FaultKind: add a case below and extend kAllFaultKinds");
  switch (k) {
    case FaultKind::Transient:
      return "transient";
    case FaultKind::Hotplug:
      return "hotplug";
    case FaultKind::PermissionFlap:
      return "permission-flap";
    case FaultKind::TornRead:
      return "torn-read";
    case FaultKind::GarbageText:
      return "garbage-text";
    case FaultKind::FrozenRegister:
      return "frozen-register";
    case FaultKind::LatencySpike:
      return "latency-spike";
  }
  return "unknown";
}

std::optional<FaultKind> fault_kind_from_name(std::string_view name) {
  for (FaultKind k : kAllFaultKinds) {
    if (fault_kind_name(k) == name) return k;
  }
  return std::nullopt;
}

bool FaultRates::any() const {
  for (double r : rate) {
    if (r > 0.0) return true;
  }
  return false;
}

FaultPlan FaultPlan::chaos(std::uint64_t seed, double r) {
  FaultPlan plan;
  plan.seed = seed;
  plan.rates[FaultKind::Transient] = 0.50 * r;
  plan.rates[FaultKind::Hotplug] = 0.10 * r;
  plan.rates[FaultKind::PermissionFlap] = 0.10 * r;
  plan.rates[FaultKind::TornRead] = 0.10 * r;
  plan.rates[FaultKind::GarbageText] = 0.10 * r;
  plan.rates[FaultKind::FrozenRegister] = 0.05 * r;
  plan.rates[FaultKind::LatencySpike] = 0.05 * r;
  plan.burst.continue_probability = 0.3;
  plan.burst.max_length = 4;
  return plan;
}

FaultPlan FaultPlan::transient_only(std::uint64_t seed, double r) {
  FaultPlan plan;
  plan.seed = seed;
  plan.rates[FaultKind::Transient] = r;
  return plan;
}

std::uint64_t FaultPlan::seed_from_env() {
  const char* text = std::getenv("AMPEREBLEED_FAULT_SEED");
  if (text == nullptr) return FaultPlan{}.seed;
  return static_cast<std::uint64_t>(
      util::parse_int("AMPEREBLEED_FAULT_SEED", text));
}

std::uint64_t FaultInjector::Stats::total_injected() const {
  return std::accumulate(injected.begin(), injected.end(),
                         std::uint64_t{0});
}

FaultInjector::FaultInjector(FaultPlan plan) : plan_(plan) {}

FaultInjector::~FaultInjector() { detach(); }

void FaultInjector::attach(hwmon::VirtualFs& fs) {
  fs.set_read_fault_hook(
      [this](std::string_view path, bool privileged,
             hwmon::VfsResult clean) {
        return filter_read(path, privileged, std::move(clean));
      });
  fs_ = &fs;
}

void FaultInjector::detach() {
  if (fs_ != nullptr) {
    fs_->set_read_fault_hook(nullptr);
    fs_ = nullptr;
  }
}

std::optional<FaultKind> FaultInjector::draw(PathState& state,
                                             std::uint64_t stream,
                                             std::uint64_t* corrupt_word) {
  const std::uint64_t n = state.accesses++;
  ++stats_.accesses;

  // Active burst: the fault persists, consuming this access.
  if (state.burst_left > 0) {
    --state.burst_left;
    return state.burst_kind;
  }

  // The decision stream for access n of this path is a pure function of
  // (plan.seed, path, n) — cross-path interleaving cannot perturb it.
  util::Rng rng(util::hash_combine(util::hash_combine(plan_.seed, stream), n));
  const double u = rng.uniform();
  *corrupt_word = rng.next();

  double cumulative = 0.0;
  std::optional<FaultKind> chosen;
  for (FaultKind k : kAllFaultKinds) {
    cumulative += plan_.rates[k];
    if (u < cumulative) {
      chosen = k;
      break;
    }
  }
  if (!chosen) return std::nullopt;

  // Geometric burst extension, capped. The extension draws come from the
  // same per-access rng, so they replay too.
  std::size_t extra = 0;
  while (extra + 1 < plan_.burst.max_length &&
         rng.uniform() < plan_.burst.continue_probability) {
    ++extra;
  }
  state.burst_kind = *chosen;
  state.burst_left = extra;
  return chosen;
}

void FaultInjector::note_injected(FaultKind k, std::string_view path,
                                  bool privileged) {
  ++stats_.injected[static_cast<std::size_t>(k)];
  if (obs::tracing_enabled()) {
    // Zero-duration span parented to whatever span is live on this thread
    // (typically the acquire stage), stamping the fault kind into the
    // causal trace.
    obs::instant(util::format("fault.%s",
                              std::string(fault_kind_name(k)).c_str()),
                 "faults");
  }
  if (obs::metrics_enabled()) {
    obs::metrics()
        .counter(util::format(
            "faults.injected.%s",
            std::string(fault_kind_name(k)).c_str()))
        .inc();
    obs::metrics().counter("faults.injected_total").inc();
  }
  // Every injected fault leaves an audit record under its own principal,
  // so a chaos run's fault schedule can be reconstructed from the audit
  // trail alongside the attacker's accesses. The attached tree's clock
  // stamps it; an unattached injector has no platform clock to read.
  if (obs::audit_enabled()) {
    obs::audit_log().record(fs_ != nullptr ? fs_->now() : sim::TimeNs{-1},
                            path, privileged, obs::AccessOutcome::Error,
                            "fault-injector");
  }
}

hwmon::VfsResult FaultInjector::filter_read(std::string_view path,
                                            bool privileged,
                                            hwmon::VfsResult clean) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = paths_.find(path);
  PathState& state = it != paths_.end()
                         ? it->second
                         : paths_.emplace(std::string(path), PathState{})
                               .first->second;

  std::uint64_t corrupt_word = 0;
  const auto kind = draw(state, fnv1a(path), &corrupt_word);
  if (!kind) {
    if (clean.ok()) state.last_clean = clean.data;
    return clean;
  }
  note_injected(*kind, path, privileged);

  switch (*kind) {
    case FaultKind::Transient:
      return {hwmon::VfsStatus::TryAgain, {}};
    case FaultKind::Hotplug:
      return {hwmon::VfsStatus::NotFound, {}};
    case FaultKind::PermissionFlap:
      return {hwmon::VfsStatus::PermissionDenied, {}};
    case FaultKind::TornRead: {
      if (!clean.ok() || clean.data.empty()) {
        return {hwmon::VfsStatus::TryAgain, {}};
      }
      // A short read hands back a strict prefix — sometimes unparseable
      // (empty), sometimes a plausible-but-wrong number ("15" from
      // "1520\n"): the nastiest kind of corruption, because no parser
      // catches it.
      const std::size_t cut =
          static_cast<std::size_t>(corrupt_word % clean.data.size());
      return {hwmon::VfsStatus::Ok, clean.data.substr(0, cut)};
    }
    case FaultKind::GarbageText:
      return {hwmon::VfsStatus::Ok,
              std::string(kGarbage[corrupt_word % std::size(kGarbage)])};
    case FaultKind::FrozenRegister:
    case FaultKind::LatencySpike:
      // Stuck conversion / latency spike: the previous conversion's text
      // repeats. last_clean deliberately not updated, so a frozen burst
      // keeps repeating the same stale value. Before any clean read the
      // register window is empty — surface EAGAIN, as a driver would when
      // the first conversion has not completed.
      if (state.last_clean.empty()) {
        return {hwmon::VfsStatus::TryAgain, {}};
      }
      return {hwmon::VfsStatus::Ok, state.last_clean};
  }
  return clean;
}

FaultInjector::Stats FaultInjector::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

// ---------------------------------------------------------------------------
// Storage kill-points.

namespace {

struct StoragePoints {
  std::mutex mu;
  std::uint64_t crossings = 0;
  std::uint64_t crash_at = 0;       // 1-based crossing; 0 = disarmed
  std::uint64_t io_fail_from = 0;   // 1-based crossing; 0 = disarmed
  std::uint64_t io_fail_count = 0;
  std::vector<std::pair<std::string, std::uint64_t>> sites;

  void tally(std::string_view site) {
    for (auto& [name, hits] : sites) {
      if (name == site) {
        ++hits;
        return;
      }
    }
    sites.emplace_back(std::string(site), 1);
  }
};

StoragePoints& storage_points() {
  static StoragePoints points;
  return points;
}

}  // namespace

void storage_points_reset() {
  StoragePoints& p = storage_points();
  std::lock_guard<std::mutex> lock(p.mu);
  p.crossings = 0;
  p.crash_at = 0;
  p.io_fail_from = 0;
  p.io_fail_count = 0;
  p.sites.clear();
}

void storage_points_arm_crash(std::uint64_t nth) {
  StoragePoints& p = storage_points();
  std::lock_guard<std::mutex> lock(p.mu);
  p.crossings = 0;
  p.crash_at = nth;
}

void storage_points_arm_io_failure(std::uint64_t nth, std::uint64_t count) {
  StoragePoints& p = storage_points();
  std::lock_guard<std::mutex> lock(p.mu);
  p.crossings = 0;
  p.io_fail_from = nth;
  p.io_fail_count = count;
}

std::uint64_t storage_point_crossings() {
  StoragePoints& p = storage_points();
  std::lock_guard<std::mutex> lock(p.mu);
  return p.crossings;
}

std::vector<std::pair<std::string, std::uint64_t>> storage_point_sites() {
  StoragePoints& p = storage_points();
  std::lock_guard<std::mutex> lock(p.mu);
  return p.sites;
}

void storage_point(std::string_view site) {
  StoragePoints& p = storage_points();
  std::lock_guard<std::mutex> lock(p.mu);
  ++p.crossings;
  p.tally(site);
  obs::count("faults.storage_point_crossings");
  if (p.crash_at != 0 && p.crossings == p.crash_at) {
    obs::count("faults.storage_crashes_injected");
    throw SimulatedCrash(std::string(site));
  }
}

bool storage_io_ok(std::string_view site) {
  StoragePoints& p = storage_points();
  std::lock_guard<std::mutex> lock(p.mu);
  ++p.crossings;
  p.tally(site);
  obs::count("faults.storage_point_crossings");
  if (p.crash_at != 0 && p.crossings == p.crash_at) {
    obs::count("faults.storage_crashes_injected");
    throw SimulatedCrash(std::string(site));
  }
  if (p.io_fail_from != 0 && p.crossings >= p.io_fail_from &&
      p.crossings < p.io_fail_from + p.io_fail_count) {
    obs::count("faults.storage_io_failures_injected");
    return false;
  }
  return true;
}

}  // namespace amperebleed::faults
