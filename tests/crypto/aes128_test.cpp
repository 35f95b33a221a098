#include "amperebleed/crypto/aes128.hpp"

#include <gtest/gtest.h>

namespace amperebleed::crypto {
namespace {

Aes128::Block from_hex32(const char* hex) {
  Aes128::Block b{};
  for (int i = 0; i < 16; ++i) {
    unsigned v = 0;
    sscanf(hex + 2 * i, "%2x", &v);
    b[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v);
  }
  return b;
}

TEST(Aes128, SboxKnownEntries) {
  // FIPS-197 figure 7 spot checks.
  EXPECT_EQ(Aes128::sbox(0x00), 0x63);
  EXPECT_EQ(Aes128::sbox(0x01), 0x7c);
  EXPECT_EQ(Aes128::sbox(0x53), 0xed);
  EXPECT_EQ(Aes128::sbox(0xff), 0x16);
}

// Every vector runs through encrypt_block_traced, the one cipher path: the
// AES victim circuit schedules its pipeline activity from it.
Aes128::Block encrypt(const Aes128& aes, const char* plaintext_hex) {
  const auto traced = aes.encrypt_block_traced(from_hex32(plaintext_hex));
  // The last pipeline register holds the ciphertext.
  EXPECT_EQ(traced.round_states[Aes128::kRounds], traced.ciphertext);
  return traced.ciphertext;
}

TEST(Aes128, Fips197AppendixCVector) {
  const Aes128 aes(from_hex32("000102030405060708090a0b0c0d0e0f"));
  EXPECT_EQ(encrypt(aes, "00112233445566778899aabbccddeeff"),
            from_hex32("69c4e0d86a7b0430d8cdb78070b4c55a"));
}

TEST(Aes128, Fips197AppendixBVector) {
  const Aes128 aes(from_hex32("2b7e151628aed2a6abf7158809cf4f3c"));
  EXPECT_EQ(encrypt(aes, "3243f6a8885a308d313198a2e0370734"),
            from_hex32("3925841d02dc09fbdc118597196a0b32"));
}

TEST(Aes128, Fips197AppendixBRoundStates) {
  // Appendix B's "start of round" column is the state after the previous
  // round's AddRoundKey: what the pipeline registers latch.
  const Aes128 aes(from_hex32("2b7e151628aed2a6abf7158809cf4f3c"));
  const auto traced =
      aes.encrypt_block_traced(from_hex32("3243f6a8885a308d313198a2e0370734"));
  EXPECT_EQ(traced.round_states[0],
            from_hex32("193de3bea0f4e22b9ac68d2ae9f84808"));
  EXPECT_EQ(traced.round_states[1],
            from_hex32("a49c7ff2689f352b6b5bea43026a5049"));
  EXPECT_EQ(traced.round_states[9],
            from_hex32("eb40f21e592e38848ba113e71bc342d2"));
  EXPECT_EQ(traced.round_states[Aes128::kRounds], traced.ciphertext);
}

TEST(Aes128, DifferentKeysDifferentCiphertexts) {
  const char* pt = "00112233445566778899aabbccddeeff";
  const Aes128 a(from_hex32("000102030405060708090a0b0c0d0e0f"));
  const Aes128 b(from_hex32("000102030405060708090a0b0c0d0e10"));
  EXPECT_NE(encrypt(a, pt), encrypt(b, pt));
}

TEST(Aes128, AvalancheOnPlaintextBitFlip) {
  const Aes128 aes(from_hex32("2b7e151628aed2a6abf7158809cf4f3c"));
  const auto c1 = encrypt(aes, "3243f6a8885a308d313198a2e0370734");
  const auto c2 = encrypt(aes, "3343f6a8885a308d313198a2e0370734");
  int differing_bits = 0;
  for (int i = 0; i < 16; ++i) {
    differing_bits += __builtin_popcount(
        static_cast<unsigned>(c1[static_cast<std::size_t>(i)] ^
                              c2[static_cast<std::size_t>(i)]));
  }
  EXPECT_GT(differing_bits, 40);  // ~64 expected of 128
  EXPECT_LT(differing_bits, 90);
}

}  // namespace
}  // namespace amperebleed::crypto
