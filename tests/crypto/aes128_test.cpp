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

TEST(Aes128, Fips197AppendixCVector) {
  const Aes128 aes(from_hex32("000102030405060708090a0b0c0d0e0f"));
  const auto ct =
      aes.encrypt_block(from_hex32("00112233445566778899aabbccddeeff"));
  EXPECT_EQ(ct, from_hex32("69c4e0d86a7b0430d8cdb78070b4c55a"));
}

TEST(Aes128, Fips197AppendixBVector) {
  const Aes128 aes(from_hex32("2b7e151628aed2a6abf7158809cf4f3c"));
  const auto ct =
      aes.encrypt_block(from_hex32("3243f6a8885a308d313198a2e0370734"));
  EXPECT_EQ(ct, from_hex32("3925841d02dc09fbdc118597196a0b32"));
}

TEST(Aes128, DifferentKeysDifferentCiphertexts) {
  const Aes128::Block pt = from_hex32("00112233445566778899aabbccddeeff");
  const Aes128 a(from_hex32("000102030405060708090a0b0c0d0e0f"));
  const Aes128 b(from_hex32("000102030405060708090a0b0c0d0e10"));
  EXPECT_NE(a.encrypt_block(pt), b.encrypt_block(pt));
}

TEST(Aes128, AvalancheOnPlaintextBitFlip) {
  const Aes128 aes(from_hex32("2b7e151628aed2a6abf7158809cf4f3c"));
  Aes128::Block pt = from_hex32("3243f6a8885a308d313198a2e0370734");
  const auto c1 = aes.encrypt_block(pt);
  pt[0] ^= 0x01;
  const auto c2 = aes.encrypt_block(pt);
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
