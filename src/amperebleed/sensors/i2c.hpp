#pragma once
// Word-register I2C bus model — the transport the ina2xx kernel driver (and
// root-side tools like i2cget) actually use to reach the INA226s. hwmon is
// the unprivileged window; the bus is the privileged raw path. Modelling it
// keeps the sensor stack honest end-to-end: the same register model answers
// both paths.

#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <vector>

#include "amperebleed/sensors/ina226.hpp"

namespace amperebleed::sensors {

/// NACK / addressing failures on the bus.
class I2cError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A device responding to word-register transactions (SMBus read/write word
/// with big-endian data, as the INA226 speaks).
class I2cDevice {
 public:
  virtual ~I2cDevice() = default;
  virtual std::uint16_t read_word(std::uint8_t reg) = 0;
  virtual void write_word(std::uint8_t reg, std::uint16_t value) = 0;
};

/// Single-master bus with 7-bit addressing.
class I2cBus {
 public:
  /// Attach a device. Throws on reserved addresses (0x00-0x07, 0x78-0x7f)
  /// or address conflicts. The device must outlive the bus.
  void attach(std::uint8_t address, I2cDevice& device);

  /// True when a device ACKs the address.
  [[nodiscard]] bool probe(std::uint8_t address) const;

  /// Sorted list of responding addresses (i2cdetect).
  [[nodiscard]] std::vector<std::uint8_t> scan() const;

  /// Word transactions; throw I2cError when nothing ACKs.
  std::uint16_t read_word(std::uint8_t address, std::uint8_t reg);
  void write_word(std::uint8_t address, std::uint8_t reg, std::uint16_t value);

  [[nodiscard]] std::uint64_t transactions() const { return transactions_; }

 private:
  std::map<std::uint8_t, I2cDevice*> devices_;
  std::uint64_t transactions_ = 0;
};

/// INA226 presented as an I2C device. `pre_access` (e.g. "advance the SoC
/// clock") runs before every transaction, like the conversion-ready timing
/// a real driver observes.
class Ina226I2cAdapter final : public I2cDevice {
 public:
  Ina226I2cAdapter(Ina226& device, std::function<void()> pre_access = {});

  std::uint16_t read_word(std::uint8_t reg) override;
  void write_word(std::uint8_t reg, std::uint16_t value) override;

 private:
  Ina226& device_;
  std::function<void()> pre_access_;
};

}  // namespace amperebleed::sensors
