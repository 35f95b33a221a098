#include "amperebleed/crypto/modexp.hpp"

#include <stdexcept>

namespace amperebleed::crypto {

BigUInt modmul(const BigUInt& a, const BigUInt& b, const BigUInt& m) {
  if (m.is_zero()) throw std::domain_error("modmul: modulus is zero");
  if (a >= m || b >= m) {
    return modmul(a.mod(m), b.mod(m), m);
  }
  // MSB-first shift-and-add: acc = 2*acc (+ a) with conditional subtract,
  // so acc always stays below m and below 2*m before reduction.
  BigUInt acc;
  const std::size_t bits = b.bit_length();
  for (std::size_t i = bits; i-- > 0;) {
    acc = acc << 1;
    if (acc >= m) acc = acc - m;
    if (b.bit(i)) {
      acc = acc + a;
      if (acc >= m) acc = acc - m;
    }
  }
  return acc;
}

BigUInt modexp(const BigUInt& base, const BigUInt& exp, const BigUInt& m) {
  if (m.is_zero()) throw std::domain_error("modexp: modulus is zero");
  BigUInt result = BigUInt(1).mod(m);  // 0 when m == 1
  BigUInt square = base.mod(m);

  const std::size_t bits = exp.is_zero() ? 1 : exp.bit_length();
  for (std::size_t i = 0; i < bits; ++i) {
    if (exp.bit(i)) {
      result = modmul(result, square, m);
    }
    // The squaring multiplier runs every iteration (synchronized with the
    // multiply path in the circuit). The last squaring is architecturally
    // dead but the hardware performs it anyway; we match that.
    square = modmul(square, square, m);
  }
  return result;
}

}  // namespace amperebleed::crypto
