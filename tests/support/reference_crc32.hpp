#pragma once
// Reference CRC-32: the bytewise Sarwate table loop, one byte per lookup.
// tests/persist/codec_test.cpp pits the slicing-by-8 persist::crc32 against
// it, the golden file tests checksum whole snapshot and journal images with
// it, and bench/micro_primitives times it as the slow side of crc32_speedup.

#include <cstdint>
#include <string_view>

namespace amperebleed::persist::reference {

/// Same value as persist::crc32 for every input and seed.
[[nodiscard]] std::uint32_t crc32(std::string_view bytes,
                                  std::uint32_t seed = 0);

}  // namespace amperebleed::persist::reference
