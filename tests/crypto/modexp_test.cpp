#include "amperebleed/crypto/modexp.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "amperebleed/util/rng.hpp"

namespace amperebleed::crypto {
namespace {

// Reference modular exponentiation on native integers (m small enough that
// 128-bit intermediates suffice).
std::uint64_t ref_modexp(std::uint64_t base, std::uint64_t exp,
                         std::uint64_t m) {
  __uint128_t result = 1 % m;
  __uint128_t b = base % m;
  while (exp != 0) {
    if (exp & 1u) result = result * b % m;
    b = b * b % m;
    exp >>= 1;
  }
  return static_cast<std::uint64_t>(result);
}

TEST(ModMul, MatchesNativeArithmetic) {
  util::Rng rng(1);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint64_t m = 2 + rng.uniform_below(1'000'000'007ULL);
    const std::uint64_t a = rng.uniform_below(m);
    const std::uint64_t b = rng.uniform_below(m);
    const __uint128_t expected = static_cast<__uint128_t>(a) * b % m;
    EXPECT_EQ(modmul(BigUInt(a), BigUInt(b), BigUInt(m)).low_u64(),
              static_cast<std::uint64_t>(expected));
  }
}

TEST(ModMul, ReducesOversizedOperands) {
  const BigUInt m(97);
  EXPECT_EQ(modmul(BigUInt(1000), BigUInt(1000), m).low_u64(),
            1000ull * 1000ull % 97ull);
}

TEST(ModMul, ZeroModulusThrows) {
  EXPECT_THROW(modmul(BigUInt(1), BigUInt(1), BigUInt()), std::domain_error);
}

TEST(ModExp, MatchesNativeReference) {
  util::Rng rng(2);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint64_t m = 2 + rng.uniform_below(1'000'000ULL);
    const std::uint64_t base = rng.uniform_below(m);
    const std::uint64_t exp = rng.uniform_below(1'000'000ULL);
    EXPECT_EQ(modexp(BigUInt(base), BigUInt(exp), BigUInt(m)).low_u64(),
              ref_modexp(base, exp, m))
        << base << "^" << exp << " mod " << m;
  }
}

TEST(ModExp, EdgeCases) {
  // x^0 = 1 (mod m > 1); anything mod 1 is 0.
  EXPECT_EQ(modexp(BigUInt(5), BigUInt(), BigUInt(7)).low_u64(), 1u);
  EXPECT_TRUE(modexp(BigUInt(5), BigUInt(3), BigUInt(1)).is_zero());
  EXPECT_TRUE(modexp(BigUInt(), BigUInt(3), BigUInt(7)).is_zero());
  EXPECT_THROW(modexp(BigUInt(2), BigUInt(2), BigUInt()), std::domain_error);
}

TEST(ModExp, FermatLittleTheorem) {
  // a^(p-1) = 1 mod p for prime p and a not divisible by p.
  const std::uint64_t p = 1'000'000'007ULL;
  for (std::uint64_t a : {2ULL, 3ULL, 65537ULL}) {
    EXPECT_EQ(modexp(BigUInt(a), BigUInt(p - 1), BigUInt(p)).low_u64(), 1u);
  }
}

TEST(ModExp, LargeOperandsAgainstPythonDerivedVector) {
  // 0x123456789abcdef ^ 0x1001 mod (2^127 - 1), checked externally.
  const BigUInt base = BigUInt::from_hex("123456789abcdef");
  const BigUInt exp = BigUInt::from_hex("1001");
  const BigUInt m = (BigUInt(1) << 127) - BigUInt(1);
  const BigUInt expected = BigUInt::from_hex(
      "1f79b9a1fe2c823da51a48a241f836cd");
  EXPECT_EQ(modexp(base, exp, m), expected);
}

}  // namespace
}  // namespace amperebleed::crypto
