#include "amperebleed/fpga/rsa_circuit.hpp"

#include <stdexcept>

namespace amperebleed::fpga {

RsaCircuit::RsaCircuit(RsaCircuitConfig config, crypto::RsaKey key)
    : config_(config), key_(std::move(key)) {
  if (config_.clock_mhz <= 0.0) {
    throw std::invalid_argument("RsaCircuit: clock must be > 0");
  }
  if (key_.private_exponent.is_zero()) {
    throw std::invalid_argument(
        "RsaCircuit: the circuit does not support exponentiation by 0");
  }
  if (key_.private_exponent.bit_length() > config_.key_bits) {
    throw std::invalid_argument("RsaCircuit: exponent wider than key_bits");
  }
  if (key_.modulus.is_zero()) {
    throw std::invalid_argument("RsaCircuit: modulus must be nonzero");
  }
}

CircuitDescriptor RsaCircuit::descriptor() const {
  // Two 1024-bit modular multipliers plus control; logic-only implementation.
  return CircuitDescriptor{
      .name = "rsa1024",
      .usage =
          FabricResources{
              .luts = 31'000,
              .flip_flops = 9'500,
              .dsp_slices = 0,
              .bram_blocks = 8,
          },
      .encrypted = true,  // IEEE-1735; the key ships inside the bitstream
  };
}

sim::TimeNs RsaCircuit::iteration_duration() const {
  const double ns = static_cast<double>(config_.cycles_per_iteration) /
                    config_.clock_mhz * 1e3;
  return sim::TimeNs{static_cast<std::int64_t>(ns + 0.5)};
}

sim::TimeNs RsaCircuit::exponentiation_duration() const {
  return sim::TimeNs{iteration_duration().ns *
                     static_cast<std::int64_t>(config_.key_bits)};
}

std::size_t RsaCircuit::key_hamming_weight() const {
  return key_.private_exponent.hamming_weight();
}

double RsaCircuit::mean_encryption_current() const {
  const double multiply_duty = static_cast<double>(key_hamming_weight()) /
                               static_cast<double>(config_.key_bits);
  return config_.idle_current_amps + config_.controller_current_amps +
         config_.square_multiplier_current_amps +
         multiply_duty * config_.multiply_multiplier_current_amps;
}

RsaCircuit::Schedule RsaCircuit::schedule(sim::TimeNs start, sim::TimeNs end,
                                          RsaGranularity granularity) const {
  if (end < start) throw std::invalid_argument("RsaCircuit: end < start");

  Schedule out;
  auto& fpga = out.activity.on(power::Rail::FpgaLogic);
  fpga = sim::PiecewiseConstant(config_.idle_current_amps);

  const sim::TimeNs iter = iteration_duration();
  const sim::TimeNs exp_dur = exponentiation_duration();
  const double gap_ns = static_cast<double>(config_.cycles_between_encryptions) /
                        config_.clock_mhz * 1e3;
  const sim::TimeNs gap{static_cast<std::int64_t>(gap_ns + 0.5)};

  const double base_active =
      config_.idle_current_amps + config_.controller_current_amps +
      config_.square_multiplier_current_amps;
  const double with_multiply =
      base_active + config_.multiply_multiplier_current_amps;

  sim::TimeNs cursor = start;
  while (cursor + exp_dur <= end) {
    if (granularity == RsaGranularity::PerExponentiation) {
      fpga.append(cursor, mean_encryption_current());
    } else {
      // Bit-level amplitude modulation: the state machine walks all
      // key_bits bits; bits beyond the exponent's length are zero.
      sim::TimeNs t = cursor;
      for (std::size_t bit = 0; bit < config_.key_bits; ++bit) {
        const bool one = key_.private_exponent.bit(bit);
        fpga.append(t, one ? with_multiply : base_active);
        t += iter;
      }
    }
    cursor += exp_dur;
    fpga.append(cursor, config_.idle_current_amps);
    cursor += gap;
    ++out.encryption_count;
  }
  return out;
}

}  // namespace amperebleed::fpga
