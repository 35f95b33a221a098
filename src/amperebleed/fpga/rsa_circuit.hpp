#pragma once
// Victim RSA-1024 circuit (after Zhao & Suh, modified per the paper to run
// at 100 MHz). Square-and-multiply with two dedicated modular multipliers
// and a state machine that walks the 1024-bit exponent LSB-first:
//   * every iteration the square multiplier runs;
//   * on a '1' bit the multiply multiplier runs in the same cycles,
//     doubling the switching activity of that iteration.
// Both multipliers complete in the same cycle count, so iterations have a
// fixed duration and only their current amplitude leaks the key bit. The
// private exponent is embedded in the (IEEE-1735 encrypted) bitstream and is
// not readable by any software, privileged or not.

#include "amperebleed/crypto/rsa.hpp"
#include "amperebleed/fpga/fabric.hpp"
#include "amperebleed/power/activity.hpp"
#include "amperebleed/sim/time.hpp"

namespace amperebleed::fpga {

struct RsaCircuitConfig {
  double clock_mhz = 100.0;      // paper's modified operating frequency
  std::size_t key_bits = 1024;   // exponent register width
  /// Cycles per state-machine iteration (both multipliers are synchronized
  /// to finish together).
  std::size_t cycles_per_iteration = 1056;
  /// Pipeline reload cycles between consecutive encryptions.
  std::size_t cycles_between_encryptions = 64;
  /// Current drawn by the always-active square multiplier while encrypting.
  double square_multiplier_current_amps = 0.150;
  /// Additional current when the multiply multiplier is active ('1' bits).
  double multiply_multiplier_current_amps = 0.160;
  /// State machine + operand registers while encrypting.
  double controller_current_amps = 0.020;
  /// Leakage of the deployed circuit (drawn even when idle).
  double idle_current_amps = 0.045;
};

/// Activity-schedule resolution. Per-exponentiation is sufficient for the
/// 35 ms hwmon channel (each conversion spans ~3 encryptions); per-iteration
/// exposes the bit-level amplitude modulation for fine-grained studies.
enum class RsaGranularity { PerExponentiation, PerIteration };

class RsaCircuit {
 public:
  /// Throws if the key's exponent is zero (unsupported by the hardware) or
  /// wider than key_bits.
  RsaCircuit(RsaCircuitConfig config, crypto::RsaKey key);

  [[nodiscard]] CircuitDescriptor descriptor() const;

  [[nodiscard]] sim::TimeNs iteration_duration() const;
  /// Fixed for all keys: the state machine always walks key_bits bits.
  [[nodiscard]] sim::TimeNs exponentiation_duration() const;

  /// Mean FPGA-rail current during one exponentiation (idle + controller +
  /// square + multiply * HW/key_bits) — the quantity Fig 4's distributions
  /// are centred on.
  [[nodiscard]] double mean_encryption_current() const;

  struct Schedule {
    power::RailActivity activity;
    std::size_t encryption_count = 0;
  };

  /// Back-to-back encryptions from `start` until the last one that finishes
  /// by `end` (the circuit then goes idle).
  [[nodiscard]] Schedule schedule(sim::TimeNs start, sim::TimeNs end,
                                  RsaGranularity granularity =
                                      RsaGranularity::PerExponentiation) const;

  [[nodiscard]] std::size_t key_hamming_weight() const;
  [[nodiscard]] const RsaCircuitConfig& config() const { return config_; }

 private:
  RsaCircuitConfig config_;
  crypto::RsaKey key_;
};

}  // namespace amperebleed::fpga
