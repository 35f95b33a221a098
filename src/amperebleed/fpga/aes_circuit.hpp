#pragma once
// AES-128 victim circuit — the negative control to the RSA case study. A
// round-pipelined AES core's register switching depends on the evolving
// cipher state, which (by design of the cipher) averages to the same
// activity for every key once plaintexts vary. Consequently the 35 ms
// current channel, which breaks the RSA exponent's Hamming weight wide
// open, learns nothing about the AES key (bench/ablation_constant_time).
//
// The activity schedule is driven by the *real* cipher: per-chunk mean
// register-toggle counts come from crypto::Aes128::encrypt_block_traced on
// the actual plaintext stream.

#include <cstdint>

#include "amperebleed/crypto/aes128.hpp"
#include "amperebleed/fpga/fabric.hpp"
#include "amperebleed/power/activity.hpp"
#include "amperebleed/sim/time.hpp"

namespace amperebleed::fpga {

struct AesCircuitConfig {
  double clock_mhz = 250.0;
  /// Cycles per block in the iterated-round core (10 rounds + key load).
  std::size_t cycles_per_block = 11;
  double idle_current_amps = 0.012;  // deployed-core leakage
  /// Current at the cipher's average switching activity (half the pipeline
  /// registers toggling per cycle).
  double core_current_amps = 0.085;
  /// Current scales linearly with measured register toggles around the
  /// average: I = core * (toggles / expected_toggles).
  /// Resolution of the generated schedule: activity is aggregated over
  /// chunks of this duration using a sampled plaintext subset.
  sim::TimeNs chunk = sim::milliseconds(5);
  /// Blocks actually pushed through the real cipher per chunk to estimate
  /// the chunk's mean toggle count.
  std::size_t sampled_blocks_per_chunk = 8;
};

class AesCircuit {
 public:
  AesCircuit(AesCircuitConfig config, crypto::Aes128::Key key);

  [[nodiscard]] CircuitDescriptor descriptor() const;

  [[nodiscard]] sim::TimeNs block_duration() const;
  /// Blocks encrypted per second at full throughput.
  [[nodiscard]] double blocks_per_second() const;

  struct Schedule {
    power::RailActivity activity;
    std::uint64_t blocks_encrypted = 0;  // total (modelled) block count
  };

  /// Encrypt a random plaintext stream back-to-back over [start, end);
  /// `plaintext_seed` drives the stream (the attacker does not control it).
  [[nodiscard]] Schedule schedule(sim::TimeNs start, sim::TimeNs end,
                                  std::uint64_t plaintext_seed) const;

  [[nodiscard]] const AesCircuitConfig& config() const { return config_; }

 private:
  AesCircuitConfig config_;
  crypto::Aes128 cipher_;
};

}  // namespace amperebleed::fpga
