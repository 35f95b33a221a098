#pragma once
// AES-128 block cipher (FIPS-197), implemented from scratch for the
// negative-control victim circuit: unlike the RSA square-and-multiply, an
// AES round pipeline's activity does not modulate with the key at any
// timescale the 35 ms hwmon channel can see, so the attack that recovers
// RSA Hamming weights measurably fails against it (ablation_constant_time).
//
// Table-based reference implementation — correctness and clarity, not
// side-channel hardening (it *is* the victim model).

#include <array>
#include <cstdint>

namespace amperebleed::crypto {

class Aes128 {
 public:
  using Block = std::array<std::uint8_t, 16>;
  using Key = std::array<std::uint8_t, 16>;

  static constexpr int kRounds = 10;

  explicit Aes128(const Key& key);

  /// Encrypt one 16-byte block (ECB primitive).
  [[nodiscard]] Block encrypt_block(const Block& plaintext) const;

  /// Encryption with the intermediate state after every AddRoundKey —
  /// what a register-per-round hardware pipeline latches each cycle. The
  /// power model derives real switching activity (Hamming distances
  /// between consecutive states) from this.
  struct TracedEncryption {
    Block ciphertext{};
    std::array<Block, kRounds + 1> round_states{};  // post-AddRoundKey
    /// Total bit toggles across the pipeline registers for this block.
    int register_toggles = 0;
  };
  [[nodiscard]] TracedEncryption encrypt_block_traced(
      const Block& plaintext) const;

  /// S-box lookup, exposed for tests.
  static std::uint8_t sbox(std::uint8_t x);

 private:
  // 11 round keys of 16 bytes each.
  std::array<std::array<std::uint8_t, 16>, kRounds + 1> round_keys_{};
};

}  // namespace amperebleed::crypto
