#pragma once
// Modular arithmetic and the LSB-first square-and-multiply exponentiation
// that the paper's victim RSA-1024 circuit implements in hardware: the state
// machine walks exponent bits from the least-significant end; every
// iteration runs the squaring multiplier, and iterations on a '1' bit
// additionally run the second (multiply) multiplier.

#include "amperebleed/crypto/biguint.hpp"

namespace amperebleed::crypto {

/// (a * b) mod m via interleaved shift-and-add reduction: operands stay
/// below 2*m so 1024-bit moduli never grow 2048-bit intermediates.
/// Preconditions: m > 0; a, b < m.
BigUInt modmul(const BigUInt& a, const BigUInt& b, const BigUInt& m);

/// base^exp mod m using LSB-first square-and-multiply (matches the circuit).
/// Precondition: m > 0. Handles base >= m by pre-reduction; exp == 0 -> 1 mod m.
BigUInt modexp(const BigUInt& base, const BigUInt& exp, const BigUInt& m);

}  // namespace amperebleed::crypto
