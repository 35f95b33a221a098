#include "amperebleed/sensors/i2c.hpp"

#include "amperebleed/util/strings.hpp"

namespace amperebleed::sensors {

void I2cBus::attach(std::uint8_t address, I2cDevice& device) {
  if (address <= 0x07 || address >= 0x78) {
    throw std::invalid_argument(
        util::format("I2cBus: address 0x%02x is reserved", address));
  }
  const auto [it, inserted] = devices_.emplace(address, &device);
  if (!inserted) {
    throw std::invalid_argument(
        util::format("I2cBus: address 0x%02x already attached", address));
  }
}

bool I2cBus::probe(std::uint8_t address) const {
  return devices_.count(address) != 0;
}

std::vector<std::uint8_t> I2cBus::scan() const {
  std::vector<std::uint8_t> addresses;
  addresses.reserve(devices_.size());
  for (const auto& [address, device] : devices_) {
    addresses.push_back(address);
  }
  return addresses;  // std::map iterates sorted
}

std::uint16_t I2cBus::read_word(std::uint8_t address, std::uint8_t reg) {
  const auto it = devices_.find(address);
  if (it == devices_.end()) {
    throw I2cError(util::format("I2C NACK at 0x%02x", address));
  }
  ++transactions_;
  return it->second->read_word(reg);
}

void I2cBus::write_word(std::uint8_t address, std::uint8_t reg,
                        std::uint16_t value) {
  const auto it = devices_.find(address);
  if (it == devices_.end()) {
    throw I2cError(util::format("I2C NACK at 0x%02x", address));
  }
  ++transactions_;
  it->second->write_word(reg, value);
}

Ina226I2cAdapter::Ina226I2cAdapter(Ina226& device,
                                   std::function<void()> pre_access)
    : device_(device), pre_access_(std::move(pre_access)) {}

std::uint16_t Ina226I2cAdapter::read_word(std::uint8_t reg) {
  if (pre_access_) pre_access_();
  return device_.read_register(static_cast<Ina226Register>(reg));
}

void Ina226I2cAdapter::write_word(std::uint8_t reg, std::uint16_t value) {
  if (pre_access_) pre_access_();
  device_.write_register(static_cast<Ina226Register>(reg), value);
}

}  // namespace amperebleed::sensors
