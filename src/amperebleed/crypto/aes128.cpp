#include "amperebleed/crypto/aes128.hpp"

#include <cstring>

namespace amperebleed::crypto {

namespace {

// Build the S-box at first use from the field inverse + affine transform,
// rather than pasting a 256-entry table (self-checking against FIPS-197 in
// the unit tests).
struct SboxTables {
  std::array<std::uint8_t, 256> fwd{};

  SboxTables() {
    // Multiplicative inverses in GF(2^8) via exp/log tables over generator 3.
    std::array<std::uint8_t, 256> exp_table{};
    std::array<std::uint8_t, 256> log_table{};
    std::uint8_t x = 1;
    for (int i = 0; i < 255; ++i) {
      exp_table[static_cast<std::size_t>(i)] = x;
      log_table[x] = static_cast<std::uint8_t>(i);
      // multiply x by 3 = x + xtime(x)
      const auto xtime = static_cast<std::uint8_t>(
          (x << 1) ^ ((x & 0x80) ? 0x1b : 0x00));
      x = static_cast<std::uint8_t>(x ^ xtime);
    }
    for (int v = 0; v < 256; ++v) {
      std::uint8_t inverse = 0;
      if (v != 0) {
        inverse = exp_table[static_cast<std::size_t>(
            (255 - log_table[static_cast<std::size_t>(v)]) % 255)];
      }
      // Affine transform.
      std::uint8_t s = 0;
      for (int bit = 0; bit < 8; ++bit) {
        const int b = ((inverse >> bit) & 1) ^
                      ((inverse >> ((bit + 4) % 8)) & 1) ^
                      ((inverse >> ((bit + 5) % 8)) & 1) ^
                      ((inverse >> ((bit + 6) % 8)) & 1) ^
                      ((inverse >> ((bit + 7) % 8)) & 1) ^
                      ((0x63 >> bit) & 1);
        s = static_cast<std::uint8_t>(s | (b << bit));
      }
      fwd[static_cast<std::size_t>(v)] = s;
    }
  }
};

const SboxTables& tables() {
  static const SboxTables t;
  return t;
}

std::uint8_t xtime(std::uint8_t x) {
  return static_cast<std::uint8_t>((x << 1) ^ ((x & 0x80) ? 0x1b : 0x00));
}

std::uint8_t gmul(std::uint8_t a, std::uint8_t b) {
  std::uint8_t result = 0;
  while (b != 0) {
    if (b & 1) result = static_cast<std::uint8_t>(result ^ a);
    a = xtime(a);
    b >>= 1;
  }
  return result;
}

using State = std::array<std::uint8_t, 16>;  // column-major, as FIPS-197

void add_round_key(State& s, const std::array<std::uint8_t, 16>& rk) {
  for (int i = 0; i < 16; ++i) s[i] = static_cast<std::uint8_t>(s[i] ^ rk[i]);
}

void sub_bytes(State& s) {
  for (auto& b : s) b = tables().fwd[b];
}

// State layout: s[col*4 + row].
void shift_rows(State& s) {
  State t = s;
  for (int row = 1; row < 4; ++row) {
    for (int col = 0; col < 4; ++col) {
      s[static_cast<std::size_t>(col * 4 + row)] =
          t[static_cast<std::size_t>(((col + row) % 4) * 4 + row)];
    }
  }
}

void mix_columns(State& s) {
  for (int col = 0; col < 4; ++col) {
    std::uint8_t* c = &s[static_cast<std::size_t>(col * 4)];
    const std::uint8_t a0 = c[0];
    const std::uint8_t a1 = c[1];
    const std::uint8_t a2 = c[2];
    const std::uint8_t a3 = c[3];
    c[0] = static_cast<std::uint8_t>(gmul(a0, 2) ^ gmul(a1, 3) ^ a2 ^ a3);
    c[1] = static_cast<std::uint8_t>(a0 ^ gmul(a1, 2) ^ gmul(a2, 3) ^ a3);
    c[2] = static_cast<std::uint8_t>(a0 ^ a1 ^ gmul(a2, 2) ^ gmul(a3, 3));
    c[3] = static_cast<std::uint8_t>(gmul(a0, 3) ^ a1 ^ a2 ^ gmul(a3, 2));
  }
}

}  // namespace

std::uint8_t Aes128::sbox(std::uint8_t x) { return tables().fwd[x]; }

Aes128::Aes128(const Key& key) {
  // Key expansion (FIPS-197 5.2).
  std::memcpy(round_keys_[0].data(), key.data(), 16);
  std::uint8_t rcon = 1;
  for (int round = 1; round <= kRounds; ++round) {
    const auto& prev = round_keys_[static_cast<std::size_t>(round - 1)];
    auto& rk = round_keys_[static_cast<std::size_t>(round)];
    // First word: RotWord + SubWord + Rcon.
    std::uint8_t t[4] = {prev[13], prev[14], prev[15], prev[12]};
    for (auto& b : t) b = tables().fwd[b];
    t[0] = static_cast<std::uint8_t>(t[0] ^ rcon);
    rcon = xtime(rcon);
    for (int i = 0; i < 4; ++i) {
      rk[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(prev[static_cast<std::size_t>(i)] ^ t[i]);
    }
    for (int i = 4; i < 16; ++i) {
      rk[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(
          prev[static_cast<std::size_t>(i)] ^
          rk[static_cast<std::size_t>(i - 4)]);
    }
  }
}

Aes128::Block Aes128::encrypt_block(const Block& plaintext) const {
  State s = plaintext;
  add_round_key(s, round_keys_[0]);
  for (int round = 1; round < kRounds; ++round) {
    sub_bytes(s);
    shift_rows(s);
    mix_columns(s);
    add_round_key(s, round_keys_[static_cast<std::size_t>(round)]);
  }
  sub_bytes(s);
  shift_rows(s);
  add_round_key(s, round_keys_[kRounds]);
  return s;
}

Aes128::TracedEncryption Aes128::encrypt_block_traced(
    const Block& plaintext) const {
  TracedEncryption out;
  State s = plaintext;
  add_round_key(s, round_keys_[0]);
  out.round_states[0] = s;
  for (int round = 1; round < kRounds; ++round) {
    sub_bytes(s);
    shift_rows(s);
    mix_columns(s);
    add_round_key(s, round_keys_[static_cast<std::size_t>(round)]);
    out.round_states[static_cast<std::size_t>(round)] = s;
  }
  sub_bytes(s);
  shift_rows(s);
  add_round_key(s, round_keys_[kRounds]);
  out.round_states[kRounds] = s;
  out.ciphertext = s;

  for (int round = 1; round <= kRounds; ++round) {
    for (int byte = 0; byte < 16; ++byte) {
      const auto prev =
          out.round_states[static_cast<std::size_t>(round - 1)]
                          [static_cast<std::size_t>(byte)];
      const auto cur = out.round_states[static_cast<std::size_t>(round)]
                                       [static_cast<std::size_t>(byte)];
      out.register_toggles +=
          __builtin_popcount(static_cast<unsigned>(prev ^ cur));
    }
  }
  return out;
}

}  // namespace amperebleed::crypto
