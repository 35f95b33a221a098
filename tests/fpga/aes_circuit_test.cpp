#include "amperebleed/fpga/aes_circuit.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "amperebleed/stats/descriptive.hpp"
#include "amperebleed/util/rng.hpp"

namespace amperebleed::fpga {
namespace {

crypto::Aes128::Key key_with_pattern(std::uint8_t fill) {
  crypto::Aes128::Key key{};
  key.fill(fill);
  return key;
}

TEST(AesCircuit, Validation) {
  AesCircuitConfig bad;
  bad.clock_mhz = 0.0;
  EXPECT_THROW(AesCircuit(bad, key_with_pattern(0)), std::invalid_argument);
  AesCircuitConfig chunk;
  chunk.sampled_blocks_per_chunk = 0;
  EXPECT_THROW(AesCircuit(chunk, key_with_pattern(0)), std::invalid_argument);
}

TEST(AesCircuit, TimingFromClock) {
  AesCircuit circuit(AesCircuitConfig{}, key_with_pattern(0x5a));
  // 11 cycles @ 250 MHz = 44 ns per block.
  EXPECT_EQ(circuit.block_duration(), sim::nanoseconds(44));
  EXPECT_NEAR(circuit.blocks_per_second(), 250e6 / 11.0, 1.0);
}

TEST(AesCircuit, ScheduleCoversWindowAndCountsBlocks) {
  AesCircuit circuit(AesCircuitConfig{}, key_with_pattern(0x77));
  const auto s =
      circuit.schedule(sim::TimeNs{0}, sim::milliseconds(100), 1);
  // 22.7M blocks/s * 0.1 s ~ 2.27M blocks.
  EXPECT_NEAR(static_cast<double>(s.blocks_encrypted), 2.27e6, 0.05e6);
  const auto& fpga = s.activity.on(power::Rail::FpgaLogic);
  EXPECT_GT(fpga.value_at(sim::milliseconds(50)),
            circuit.config().idle_current_amps);
  EXPECT_DOUBLE_EQ(fpga.value_at(sim::milliseconds(150)),
                   circuit.config().idle_current_amps);
}

TEST(AesCircuit, MeanCurrentNearNominalForAnyKey) {
  // The cipher's diffusion pins per-chunk toggle counts to ~50% activity
  // regardless of key — the structural reason the negative control holds.
  util::Rng rng(3);
  for (int trial = 0; trial < 4; ++trial) {
    crypto::Aes128::Key key{};
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.uniform_below(256));
    AesCircuit circuit(AesCircuitConfig{}, key);
    const auto s =
        circuit.schedule(sim::TimeNs{0}, sim::milliseconds(200), 42 + trial);
    const auto& fpga = s.activity.on(power::Rail::FpgaLogic);
    const double mean = fpga.mean(sim::TimeNs{0}, sim::milliseconds(200));
    const double nominal = circuit.config().idle_current_amps +
                           circuit.config().core_current_amps;
    EXPECT_NEAR(mean, nominal, 0.002) << "trial " << trial;
  }
}

TEST(AesCircuit, KeysAreCurrentIndistinguishable) {
  // Direct schedule-level check: per-chunk current levels for an all-zero
  // key vs an all-ones key overlap completely.
  const auto collect_means = [](std::uint8_t fill) {
    AesCircuit circuit(AesCircuitConfig{}, key_with_pattern(fill));
    const auto s =
        circuit.schedule(sim::TimeNs{0}, sim::milliseconds(500), 7);
    std::vector<double> levels;
    for (const auto& seg :
         s.activity.on(power::Rail::FpgaLogic).segments()) {
      levels.push_back(seg.value);
    }
    return stats::summarize(levels);
  };
  const auto zeros = collect_means(0x00);
  const auto ones = collect_means(0xff);
  EXPECT_NEAR(zeros.mean, ones.mean, 3.0 * (zeros.stddev + ones.stddev) /
                                          std::sqrt(90.0));
}

TEST(AesCircuit, DescriptorIsEncryptedIp) {
  AesCircuit circuit(AesCircuitConfig{}, key_with_pattern(1));
  EXPECT_TRUE(circuit.descriptor().encrypted);
  EXPECT_EQ(circuit.descriptor().name, "aes128");
}

TEST(AesCircuit, EndBeforeStartThrows) {
  AesCircuit circuit(AesCircuitConfig{}, key_with_pattern(1));
  EXPECT_THROW(circuit.schedule(sim::seconds(1), sim::TimeNs{0}, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace amperebleed::fpga
