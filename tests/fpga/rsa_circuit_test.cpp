#include "amperebleed/fpga/rsa_circuit.hpp"

#include <gtest/gtest.h>

#include "amperebleed/crypto/rsa.hpp"

namespace amperebleed::fpga {
namespace {

RsaCircuitConfig small_config() {
  RsaCircuitConfig c;
  c.key_bits = 64;  // keep functional tests fast
  c.cycles_per_iteration = 100;
  return c;
}

crypto::RsaKey small_key(std::size_t hw, std::uint64_t seed = 1) {
  crypto::RsaKey key;
  key.modulus = crypto::BigUInt(0xffffffffffffffc5ULL);  // odd 64-bit modulus
  key.private_exponent = crypto::exponent_with_hamming_weight(64, hw, seed);
  return key;
}

TEST(RsaCircuit, Validation) {
  crypto::RsaKey zero_exp;
  zero_exp.modulus = crypto::BigUInt(11);
  EXPECT_THROW(RsaCircuit(small_config(), zero_exp), std::invalid_argument);

  crypto::RsaKey wide = small_key(10);
  wide.private_exponent.set_bit(100);  // wider than key_bits=64
  EXPECT_THROW(RsaCircuit(small_config(), wide), std::invalid_argument);

  crypto::RsaKey no_mod = small_key(10);
  no_mod.modulus = crypto::BigUInt();
  EXPECT_THROW(RsaCircuit(small_config(), no_mod), std::invalid_argument);
}

TEST(RsaCircuit, TimingDerivedFromClock) {
  RsaCircuit circuit(small_config(), small_key(10));
  // 100 cycles @ 100 MHz = 1 us per iteration; 64 iterations per exp.
  EXPECT_EQ(circuit.iteration_duration(), sim::microseconds(1));
  EXPECT_EQ(circuit.exponentiation_duration(), sim::microseconds(64));
}

TEST(RsaCircuit, ExponentiationDurationIndependentOfKey) {
  // The state machine walks all key_bits bits regardless of the exponent's
  // numeric width — no timing leak, only amplitude.
  RsaCircuit low(small_config(), small_key(1));
  RsaCircuit high(small_config(), small_key(64));
  EXPECT_EQ(low.exponentiation_duration(), high.exponentiation_duration());
}

TEST(RsaCircuit, MeanCurrentGrowsWithHammingWeight) {
  const RsaCircuitConfig c = small_config();
  double previous = -1.0;
  for (std::size_t hw : {1u, 16u, 32u, 48u, 64u}) {
    RsaCircuit circuit(c, small_key(hw));
    EXPECT_EQ(circuit.key_hamming_weight(), hw);
    const double mean = circuit.mean_encryption_current();
    EXPECT_GT(mean, previous);
    previous = mean;
  }
}

TEST(RsaCircuit, MeanCurrentFormula) {
  const RsaCircuitConfig c = small_config();
  RsaCircuit circuit(c, small_key(32));  // 50% multiply duty
  const double expected = c.idle_current_amps + c.controller_current_amps +
                          c.square_multiplier_current_amps +
                          0.5 * c.multiply_multiplier_current_amps;
  EXPECT_NEAR(circuit.mean_encryption_current(), expected, 1e-12);
}

TEST(RsaCircuit, ScheduleCountsCompleteEncryptions) {
  RsaCircuit circuit(small_config(), small_key(10));
  // Exponentiation = 64 us + 0.64 us gap; in 500 us fit 7 full encryptions.
  const auto s =
      circuit.schedule(sim::TimeNs{0}, sim::microseconds(500));
  EXPECT_EQ(s.encryption_count, 7u);
}

TEST(RsaCircuit, ScheduleMeanMatchesMeanEncryptionCurrent) {
  RsaCircuit circuit(small_config(), small_key(32));
  const auto s = circuit.schedule(sim::TimeNs{0}, sim::microseconds(64));
  ASSERT_EQ(s.encryption_count, 1u);
  const auto& fpga = s.activity.on(power::Rail::FpgaLogic);
  EXPECT_NEAR(fpga.mean(sim::TimeNs{0}, sim::microseconds(64)),
              circuit.mean_encryption_current(), 1e-12);
}

TEST(RsaCircuit, PerIterationGranularityExposesBitPattern) {
  const RsaCircuitConfig c = small_config();
  crypto::RsaKey key = small_key(32, 3);
  const crypto::BigUInt exponent = key.private_exponent;
  RsaCircuit circuit(c, std::move(key));
  const auto s = circuit.schedule(sim::TimeNs{0}, sim::microseconds(64),
                                  RsaGranularity::PerIteration);
  const auto& fpga = s.activity.on(power::Rail::FpgaLogic);
  const double base = c.idle_current_amps + c.controller_current_amps +
                      c.square_multiplier_current_amps;
  for (std::size_t bit = 0; bit < 64; ++bit) {
    const auto t = sim::TimeNs{static_cast<std::int64_t>(bit) * 1000 + 500};
    const double expected =
        exponent.bit(bit) ? base + c.multiply_multiplier_current_amps : base;
    EXPECT_NEAR(fpga.value_at(t), expected, 1e-12) << "bit " << bit;
  }
}

TEST(RsaCircuit, IdleOutsideEncryptions) {
  const RsaCircuitConfig c = small_config();
  RsaCircuit circuit(c, small_key(5));
  const auto s = circuit.schedule(sim::milliseconds(1), sim::milliseconds(2));
  const auto& fpga = s.activity.on(power::Rail::FpgaLogic);
  EXPECT_NEAR(fpga.value_at(sim::TimeNs{0}), c.idle_current_amps, 1e-12);
  EXPECT_NEAR(fpga.value_at(sim::milliseconds(3)), c.idle_current_amps, 1e-12);
}

TEST(RsaCircuit, DescriptorIsEncryptedIp) {
  RsaCircuit circuit(small_config(), small_key(10));
  EXPECT_TRUE(circuit.descriptor().encrypted);
  EXPECT_EQ(circuit.descriptor().name, "rsa1024");
}

TEST(RsaCircuit, EndBeforeStartThrows) {
  RsaCircuit circuit(small_config(), small_key(10));
  EXPECT_THROW(circuit.schedule(sim::milliseconds(2), sim::milliseconds(1)),
               std::invalid_argument);
}

}  // namespace
}  // namespace amperebleed::fpga
