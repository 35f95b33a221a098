#pragma once
// Deterministic fault injection for the acquisition stack. On a real ZCU102
// the attack's signal path hangs off flaky kernel plumbing: hwmon sysfs
// reads hit EAGAIN, driver rebinds make attributes vanish (ENOENT), udev
// races flip permissions, short reads tear attribute text, conversion
// registers freeze, and the update-interval cadence jitters. This module
// reproduces all of it as a *seeded, exactly replayable* schedule:
//
//   faults::FaultPlan plan;
//   plan.seed = 0xfa17;
//   plan.rates[faults::FaultKind::Transient] = 0.05;
//   faults::FaultInjector injector(plan);
//   injector.attach(soc.hwmon().fs());     // hwmon read path
//
// Determinism contract: the decision for the n-th access of a given path
// is a pure function of (plan.seed, path, n). Two injectors with the same
// plan produce byte-identical fault schedules no matter how accesses to
// *different* paths interleave — which is what makes chaos runs
// reproducible across thread-pool sizes and machines.

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "amperebleed/hwmon/vfs.hpp"

namespace amperebleed::faults {

/// Everything that can go wrong on the way from a shunt register to a
/// parsed sample.
enum class FaultKind {
  Transient,       // EAGAIN: read surfaces VfsStatus::TryAgain
  Hotplug,         // ENOENT: driver rebind / hwmon renumbering
  PermissionFlap,  // EACCES: udev race re-chmods the attribute briefly
  TornRead,        // short read: truncated attribute text
  GarbageText,     // corrupted attribute text (non-numeric)
  FrozenRegister,  // stuck conversion: the previous raw text repeats
  LatencySpike,    // conversion-latency spike: one stale re-read
};

/// Bump together with the enum; every table below static_asserts against
/// it so a new kind cannot silently miss a rate slot, the name map, or the
/// per-kind obs counters.
inline constexpr std::size_t kFaultKindCount = 7;

inline constexpr FaultKind kAllFaultKinds[] = {
    FaultKind::Transient,      FaultKind::Hotplug,
    FaultKind::PermissionFlap, FaultKind::TornRead,
    FaultKind::GarbageText,    FaultKind::FrozenRegister,
    FaultKind::LatencySpike,
};
static_assert(std::size(kAllFaultKinds) == kFaultKindCount,
              "kAllFaultKinds must enumerate every FaultKind exactly once");

std::string_view fault_kind_name(FaultKind k);
/// Inverse of fault_kind_name; nullopt for unknown names.
std::optional<FaultKind> fault_kind_from_name(std::string_view name);

/// Per-access injection probability for each kind. Rates are independent;
/// at most one fault fires per access (kinds are checked in declaration
/// order against a single uniform draw, so the sum should stay <= 1).
struct FaultRates {
  std::array<double, kFaultKindCount> rate{};

  double& operator[](FaultKind k) {
    return rate[static_cast<std::size_t>(k)];
  }
  double operator[](FaultKind k) const {
    return rate[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] bool any() const;
};

/// Burst model: once a fault fires on a path, it extends to the following
/// accesses of the *same path* with geometric continuation — EAGAIN storms
/// and rebind windows on real boards span several polls, not one.
struct BurstModel {
  double continue_probability = 0.0;  // P(fault persists to the next access)
  std::size_t max_length = 4;         // hard cap on a burst, in accesses
};

/// A complete, reproducible chaos schedule.
struct FaultPlan {
  std::uint64_t seed = 0xfa17;
  FaultRates rates{};
  BurstModel burst{};

  [[nodiscard]] bool any() const { return rates.any(); }

  /// Uniform transient-flavoured chaos at total rate `r`: the mix the
  /// ablation sweeps (mostly EAGAIN, plus rebinds, flaps, torn/garbage
  /// text and frozen registers in the tail).
  static FaultPlan chaos(std::uint64_t seed, double r);
  /// Only EAGAIN at rate `r` (the cleanest retry-policy stressor).
  static FaultPlan transient_only(std::uint64_t seed, double r);
  /// AMPEREBLEED_FAULT_SEED (default 0xfa17), the CI chaos matrix's entry
  /// point. Parsed by CliArgs::get_int's rules, so the variable and
  /// `--fault-seed` accept the same strings; anything else throws
  /// std::invalid_argument naming the variable.
  static std::uint64_t seed_from_env();
};

/// Seeded injector that wraps a VirtualFs read path.
/// Thread-safe: per-path state is mutex-guarded, and determinism holds
/// per path regardless of cross-path interleaving.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);
  /// Detaches from the attached filesystem, if any.
  ~FaultInjector();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Install this injector on a filesystem's read path. The injector must
  /// outlive the attachment (detach() or destruction removes the hook).
  void attach(hwmon::VirtualFs& fs);
  void detach();

  /// Decision core, public for tests: the (possibly faulted) result the
  /// n-th read of `path` surfaces given its clean result.
  [[nodiscard]] hwmon::VfsResult filter_read(std::string_view path,
                                             bool privileged,
                                             hwmon::VfsResult clean);

  struct Stats {
    std::array<std::uint64_t, kFaultKindCount> injected{};
    std::uint64_t accesses = 0;  // decisions taken
    [[nodiscard]] std::uint64_t total_injected() const;
    [[nodiscard]] std::uint64_t by_kind(FaultKind k) const {
      return injected[static_cast<std::size_t>(k)];
    }
  };
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

 private:
  struct PathState {
    std::uint64_t accesses = 0;    // decision sequence number
    std::string last_clean;        // latest clean text (frozen/latency)
    FaultKind burst_kind = FaultKind::Transient;
    std::size_t burst_left = 0;    // active burst continuation
  };

  /// Draw the fault (if any) for the next access of `state`, advancing its
  /// sequence number. `stream` identifies the path. Burst continuation and
  /// corruption parameters all derive from the same per-access rng.
  std::optional<FaultKind> draw(PathState& state, std::uint64_t stream,
                                std::uint64_t* corrupt_word);
  void note_injected(FaultKind k, std::string_view path, bool privileged);

  FaultPlan plan_;
  mutable std::mutex mu_;
  std::map<std::string, PathState, std::less<>> paths_;
  Stats stats_;
  hwmon::VirtualFs* fs_ = nullptr;
};

// ---------------------------------------------------------------------------
// Storage kill-points (DESIGN.md §15).
//
// The persist write paths (journal append, snapshot write, journal reset,
// snapshot pruning) cross a named storage point at every durable
// intermediate state. A process-global registry counts the crossings, and a
// crash-recovery harness can arm it two ways:
//
//   * crash at the n-th crossing — the crossing throws SimulatedCrash,
//     abandoning the write mid-flight exactly where a power cut would,
//     with real partial files left on disk;
//   * IO failure at the n-th crossing — storage_io_ok() reports failure at
//     its (pre-write) decision sites, which persist maps to IoError and the
//     service maps to Degraded mode.
//
// Crossings are counted on the service's tick thread only (all persist
// writes happen there), so the crossing sequence is a pure function of the
// request schedule — the same determinism contract as FaultInjector, one
// layer up.

/// Thrown by an armed storage point. Deliberately NOT derived from
/// std::exception: nothing between the persist write site and the harness
/// may catch and "handle" a simulated crash, the torn state on disk is the
/// test fixture.
class SimulatedCrash {
 public:
  explicit SimulatedCrash(std::string site) : site_(std::move(site)) {}
  [[nodiscard]] const std::string& site() const { return site_; }

 private:
  std::string site_;
};

/// Forget all arming, crossing counts and site tallies.
void storage_points_reset();
/// Throw SimulatedCrash at the nth crossing from now (1-based; 0 disarms).
void storage_points_arm_crash(std::uint64_t nth);
/// Report IO failure from storage_io_ok() for `count` crossings starting at
/// the nth from now (1-based; 0 disarms).
void storage_points_arm_io_failure(std::uint64_t nth, std::uint64_t count);
/// Crossings since the last reset — a clean run's total is the sweep bound
/// for the crash harness.
[[nodiscard]] std::uint64_t storage_point_crossings();
/// (site, crossings) tallies in first-crossing order — the kill-point map.
[[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
storage_point_sites();

/// Cross a named kill-point (persist write paths call this after every
/// durable step). Throws SimulatedCrash when the crash arming hits.
void storage_point(std::string_view site);
/// Decision site before a write: false = the armed IO failure fires and the
/// caller must surface IoError without touching the medium. Also counts as
/// a crossing for crash arming.
[[nodiscard]] bool storage_io_ok(std::string_view site);

}  // namespace amperebleed::faults
