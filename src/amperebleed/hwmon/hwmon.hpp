#pragma once
// The Linux hwmon subsystem as seen from user space: per-device directories
// under /sys/class/hwmon/hwmonN exposing the INA226 measurements as text
// attributes. Measurement attributes are world-readable (the AmpereBleed
// precondition); update_interval is root-writable only, which is why the
// unprivileged attacker is stuck with the 35 ms default.
//
// The mitigation the paper discusses (restricting sensor access to
// privileged users) is the `unprivileged_sensor_read` policy knob.

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "amperebleed/hwmon/vfs.hpp"
#include "amperebleed/sensors/ina226.hpp"
#include "amperebleed/sensors/sysmon.hpp"
#include "amperebleed/sim/time.hpp"
#include "amperebleed/util/rng.hpp"

namespace amperebleed::hwmon {

struct HwmonPolicy {
  /// When false, measurement attributes become mode 0400 (root-only) — the
  /// paper's proposed mitigation.
  bool unprivileged_sensor_read = true;

  // --- Softer, driver-level defenses (evaluated in ablation_defenses) ---
  // These degrade the side channel while keeping unprivileged monitoring
  // functional, trading attack resistance against reporting fidelity.

  /// Defense: report current/power at a coarser granularity — values are
  /// rounded to `quantize_factor` multiples of the native LSB (1 = off).
  int quantize_factor = 1;
  /// Defense: add uniform +/- `noise_lsb` LSBs of driver-side noise to
  /// every reported measurement (0 = off). Deterministic per subsystem
  /// seed, fresh per read.
  double noise_lsb = 0.0;
  /// Defense: rate-limit measurement freshness — reads within this interval
  /// of the previous read of the same attribute return the cached value
  /// (0 = off). Requires a clock (set_clock), otherwise ignored.
  sim::TimeNs min_read_interval{0};
};

/// Registry of hwmon devices over a VirtualFs. Devices are INA226 instances;
/// every attribute read first invokes the device's `pre_access` hook so the
/// owning SoC can advance simulation time to "now".
class HwmonSubsystem {
 public:
  explicit HwmonSubsystem(HwmonPolicy policy = {});

  /// Register an INA226 as hwmonN. `label` is the board designator
  /// (e.g. "ina226_u79"); `pre_access` runs before any attribute read.
  /// Returns the assigned index N. The sensor must outlive the subsystem.
  int register_ina226(const std::string& label, sensors::Ina226& sensor,
                      std::function<void()> pre_access);

  /// Register a SYSMON/AMS die monitor exposing temp1_input (millidegree C).
  /// Measurement permissions follow the same policy as the INA devices.
  int register_sysmon(const std::string& label, sensors::Sysmon& sensor,
                      std::function<void()> pre_access);

  [[nodiscard]] std::string device_path(int index) const;
  [[nodiscard]] std::string attr_path(int index, std::string_view attr) const;
  /// Index of the device whose name attribute equals `label`.
  [[nodiscard]] std::optional<int> find_device(std::string_view label) const;
  [[nodiscard]] std::vector<std::string> device_labels() const;

  [[nodiscard]] VirtualFs& fs() { return fs_; }
  [[nodiscard]] const VirtualFs& fs() const { return fs_; }

  [[nodiscard]] const HwmonPolicy& policy() const { return policy_; }
  /// Apply a new policy; re-chmods every registered measurement attribute.
  void set_policy(HwmonPolicy policy);

  /// Provide the virtual clock used by the rate-limiting defense and the
  /// access-audit timestamps (the SoC wires this to its own now()).
  void set_clock(std::function<sim::TimeNs()> now_fn) {
    fs_.set_clock(std::move(now_fn));
  }

 private:
  [[nodiscard]] int measurement_mode() const {
    return policy_.unprivileged_sensor_read ? 0444 : 0400;
  }
  /// Apply the driver-level defenses to a raw integer reading of one
  /// measurement attribute whose native LSB maps to `lsb_units` output
  /// units; returns the value to report.
  [[nodiscard]] long long harden(const std::string& path, long long raw,
                                 double lsb_units);

  HwmonPolicy policy_;
  util::Rng defense_rng_{0xdef};
  struct CachedRead {
    sim::TimeNs at{-1'000'000'000};
    long long value = 0;
    bool valid = false;
  };
  std::map<std::string, CachedRead> read_cache_;
  VirtualFs fs_;
  struct Device {
    std::string label;
  };
  std::vector<Device> devices_;
  std::vector<std::string> measurement_attrs_;  // paths to re-chmod on policy
};

}  // namespace amperebleed::hwmon
