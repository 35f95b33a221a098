#include "amperebleed/persist/codec.hpp"

#include <array>
#include <bit>
#include <cstring>
#include <type_traits>
#include <utility>

namespace amperebleed::persist {

namespace {

constexpr bool kLittleEndian = std::endian::native == std::endian::little;

/// table[0] is the bytewise (Sarwate) table; table[k][i] is the CRC state
/// after byte i followed by k zero bytes, so eight lookups fold eight bytes.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = table[k - 1][i];
      table[k][i] = table[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return table;
}

constexpr CrcTables kCrcTables = make_crc_tables();

/// Little-endian u32 at `p`, on any host (one load on a little-endian one).
std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

/// Little-endian bytes of the low `N` bytes of `v`.
template <std::size_t N>
std::array<char, N> le_bytes(std::uint64_t v) {
  std::array<char, N> out{};
  for (std::size_t i = 0; i < N; ++i) {
    out[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
  return out;
}

}  // namespace

std::uint32_t crc32(std::string_view bytes, std::uint32_t seed) {
  const auto& t = kCrcTables;
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  std::size_t n = bytes.size();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------------------
// Encoder.

void Encoder::u16(std::uint16_t v) { put(le_bytes<2>(v).data(), 2); }

void Encoder::u32(std::uint32_t v) { put(le_bytes<4>(v).data(), 4); }

void Encoder::u64(std::uint64_t v) { put(le_bytes<8>(v).data(), 8); }

void Encoder::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Encoder::str(std::string_view s) {
  u64(s.size());
  bytes(s);
}

template <typename T>
void Encoder::raw(std::span<const T> v) {
  if constexpr (kLittleEndian) {
    put(v.data(), v.size_bytes());
  } else {
    for (const T x : v) {
      if constexpr (std::is_same_v<T, double>) {
        f64(x);
      } else {
        put(le_bytes<sizeof(T)>(static_cast<std::make_unsigned_t<T>>(x))
                .data(),
            sizeof(T));
      }
    }
  }
}

void Encoder::f64_raw(std::span<const double> v) { raw(v); }

void Encoder::u64_vec(std::span<const std::uint64_t> v) {
  u64(v.size());
  raw(v);
}

void Encoder::i32_vec(std::span<const std::int32_t> v) {
  u64(v.size());
  raw(v);
}

void Encoder::f64_vec(std::span<const double> v) {
  u64(v.size());
  raw(v);
}

void Encoder::u8_vec(std::span<const std::uint8_t> v) {
  u64(v.size());
  raw(v);
}

void Encoder::patch_u32(std::size_t at, std::uint32_t v) {
  if (!counting_) std::memcpy(buf_.data() + at, le_bytes<4>(v).data(), 4);
}

void Encoder::patch_u64(std::size_t at, std::uint64_t v) {
  if (!counting_) std::memcpy(buf_.data() + at, le_bytes<8>(v).data(), 8);
}

// ---------------------------------------------------------------------------
// Decoder.

void Decoder::fail(const std::string& what) const {
  throw DecodeError(context_ + ": " + what + " at offset " +
                    std::to_string(pos_));
}

std::uint8_t Decoder::u8() {
  if (remaining() < 1) fail("truncated (need 1 byte)");
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint16_t Decoder::u16() {
  if (remaining() < 2) fail("truncated (need 2 bytes)");
  const auto* p = reinterpret_cast<const unsigned char*>(data_.data() + pos_);
  pos_ += 2;
  return static_cast<std::uint16_t>(p[0] | p[1] << 8);
}

std::uint32_t Decoder::u32() {
  if (remaining() < 4) fail("truncated (need 4 bytes)");
  const std::uint32_t v =
      load_le32(reinterpret_cast<const unsigned char*>(data_.data() + pos_));
  pos_ += 4;
  return v;
}

std::uint64_t Decoder::u64() {
  if (remaining() < 8) fail("truncated (need 8 bytes)");
  const auto* p = reinterpret_cast<const unsigned char*>(data_.data() + pos_);
  pos_ += 8;
  return static_cast<std::uint64_t>(load_le32(p)) |
         static_cast<std::uint64_t>(load_le32(p + 4)) << 32;
}

double Decoder::f64() { return std::bit_cast<double>(u64()); }

void Decoder::check_count(std::uint64_t count, std::size_t elem_size) {
  // Any length prefix whose elements cannot fit in the remaining bytes is
  // corruption; rejecting it here keeps a flipped length bit from turning
  // into a multi-gigabyte allocation.
  if (elem_size == 0 || count > remaining() / elem_size) {
    fail("implausible element count " + std::to_string(count));
  }
}

std::string Decoder::str() {
  const std::uint64_t n = u64();
  check_count(n, 1);
  std::string out(data_.substr(pos_, n));
  pos_ += n;
  return out;
}

std::string_view Decoder::bytes(std::size_t n) {
  if (remaining() < n) {
    fail("truncated (need " + std::to_string(n) + " bytes)");
  }
  const std::string_view out = data_.substr(pos_, n);
  pos_ += n;
  return out;
}

template <typename T>
std::vector<T> Decoder::vec() {
  const std::uint64_t n = u64();
  check_count(n, sizeof(T));
  std::vector<T> out(n);
  if constexpr (kLittleEndian) {
    // check_count bounded n * sizeof(T) by remaining(), so this is in range.
    if (n != 0) std::memcpy(out.data(), data_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
  } else {
    for (T& x : out) {
      if constexpr (std::is_same_v<T, double>) {
        x = f64();
      } else if constexpr (sizeof(T) == 8) {
        x = static_cast<T>(u64());
      } else if constexpr (sizeof(T) == 4) {
        x = static_cast<T>(u32());
      } else {
        x = static_cast<T>(u8());
      }
    }
  }
  return out;
}

std::vector<std::uint64_t> Decoder::u64_vec() { return vec<std::uint64_t>(); }

std::vector<std::int32_t> Decoder::i32_vec() { return vec<std::int32_t>(); }

std::vector<double> Decoder::f64_vec() { return vec<double>(); }

std::vector<std::uint8_t> Decoder::u8_vec() { return vec<std::uint8_t>(); }

void Decoder::expect_end() const {
  if (pos_ != data_.size()) {
    throw DecodeError(context_ + ": " + std::to_string(data_.size() - pos_) +
                      " trailing bytes at offset " + std::to_string(pos_));
  }
}

// ---------------------------------------------------------------------------
// Section framing.

std::string section_tag_name(std::uint32_t tag) {
  std::string name;
  for (int i = 0; i < 4; ++i) {
    const char c = static_cast<char>((tag >> (8 * i)) & 0xFF);
    name += (c >= 0x20 && c < 0x7F) ? c : '?';
  }
  return name;
}

FileWriter::FileWriter(std::uint32_t magic, std::uint16_t version,
                       std::uint16_t kind, Encoder enc)
    : enc_(std::move(enc)) {
  enc_.u32(magic);
  enc_.u16(version);
  enc_.u16(kind);
}

void FileWriter::section(std::uint32_t tag, std::string_view payload) {
  begin_section(tag).bytes(payload);
  end_section();
}

Encoder& FileWriter::begin_section(std::uint32_t tag) {
  open_ = enc_.size();
  enc_.u32(tag);
  enc_.u64(0);  // payload_len, patched by end_section()
  enc_.u32(0);  // payload_crc, patched by end_section()
  return enc_;
}

void FileWriter::end_section() {
  const std::size_t payload_at = open_ + 16;
  enc_.patch_u64(open_ + 4, enc_.size() - payload_at);
  enc_.patch_u32(open_ + 12, crc32(enc_.written_since(payload_at)));
}

FileReader::FileReader(std::string_view data, std::uint32_t magic,
                       std::uint16_t version, std::uint16_t kind,
                       std::string context)
    : dec_(data, context), context_(std::move(context)) {
  if (dec_.u32() != magic) dec_.fail("bad magic");
  const std::uint16_t got_version = dec_.u16();
  if (got_version != version) {
    dec_.fail("unsupported format version " + std::to_string(got_version));
  }
  const std::uint16_t got_kind = dec_.u16();
  if (got_kind != kind) {
    dec_.fail("wrong payload kind " + std::to_string(got_kind));
  }
}

std::string_view FileReader::section(std::uint32_t tag) {
  const std::uint32_t got = dec_.u32();
  if (got != tag) {
    dec_.fail("expected section '" + section_tag_name(tag) + "', found '" +
              section_tag_name(got) + "'");
  }
  const std::uint64_t len = dec_.u64();
  const std::uint32_t expected_crc = dec_.u32();
  const std::string_view payload = dec_.bytes(len);
  if (crc32(payload) != expected_crc) {
    dec_.fail("CRC mismatch in section '" + section_tag_name(tag) + "'");
  }
  return payload;
}

}  // namespace amperebleed::persist
