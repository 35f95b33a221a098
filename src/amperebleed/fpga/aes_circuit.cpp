#include "amperebleed/fpga/aes_circuit.hpp"

#include <algorithm>
#include <stdexcept>

#include "amperebleed/util/rng.hpp"

namespace amperebleed::fpga {

namespace {
// Expected pipeline toggles per block: 10 register updates x 128 bits x 1/2.
constexpr double kExpectedTogglesPerBlock = 10.0 * 128.0 / 2.0;
}  // namespace

AesCircuit::AesCircuit(AesCircuitConfig config, crypto::Aes128::Key key)
    : config_(config), cipher_(key) {
  if (config_.clock_mhz <= 0.0 || config_.cycles_per_block == 0) {
    throw std::invalid_argument("AesCircuit: bad timing configuration");
  }
  if (config_.chunk.ns <= 0 || config_.sampled_blocks_per_chunk == 0) {
    throw std::invalid_argument("AesCircuit: bad chunking configuration");
  }
}

CircuitDescriptor AesCircuit::descriptor() const {
  return CircuitDescriptor{
      .name = "aes128",
      .usage =
          FabricResources{
              .luts = 3'600,
              .flip_flops = 2'950,
              .dsp_slices = 0,
              .bram_blocks = 0,
          },
      .encrypted = true,  // key embedded, as in the RSA victim
  };
}

sim::TimeNs AesCircuit::block_duration() const {
  const double ns = static_cast<double>(config_.cycles_per_block) /
                    config_.clock_mhz * 1e3;
  return sim::TimeNs{static_cast<std::int64_t>(ns + 0.5)};
}

double AesCircuit::blocks_per_second() const {
  return config_.clock_mhz * 1e6 /
         static_cast<double>(config_.cycles_per_block);
}

AesCircuit::Schedule AesCircuit::schedule(sim::TimeNs start, sim::TimeNs end,
                                          std::uint64_t plaintext_seed) const {
  if (end < start) throw std::invalid_argument("AesCircuit: end < start");

  Schedule out;
  auto& fpga = out.activity.on(power::Rail::FpgaLogic);
  fpga = sim::PiecewiseConstant(config_.idle_current_amps);

  util::Rng rng(plaintext_seed);
  sim::TimeNs cursor = start;
  while (cursor < end) {
    const sim::TimeNs chunk_end{
        std::min(cursor.ns + config_.chunk.ns, end.ns)};

    // Run a sample of the real plaintext stream through the real cipher to
    // measure this chunk's mean register activity.
    double toggles = 0.0;
    for (std::size_t b = 0; b < config_.sampled_blocks_per_chunk; ++b) {
      crypto::Aes128::Block pt{};
      for (auto& byte : pt) {
        byte = static_cast<std::uint8_t>(rng.uniform_below(256));
      }
      toggles += cipher_.encrypt_block_traced(pt).register_toggles;
    }
    const double mean_toggles =
        toggles / static_cast<double>(config_.sampled_blocks_per_chunk);
    const double current =
        config_.idle_current_amps +
        config_.core_current_amps * (mean_toggles / kExpectedTogglesPerBlock);
    fpga.append(cursor, current);

    out.blocks_encrypted += static_cast<std::uint64_t>(
        (chunk_end - cursor).seconds() * blocks_per_second());
    cursor = chunk_end;
  }
  fpga.append(end, config_.idle_current_amps);
  return out;
}

}  // namespace amperebleed::fpga
