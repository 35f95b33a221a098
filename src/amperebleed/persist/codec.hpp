#pragma once
// Low-level binary codec for the durability layer (DESIGN.md §15):
// little-endian bytes on every host (a little-endian host moves a whole
// vector with one memcpy; other hosts assemble it element by element, byte
// by byte), slicing-by-8 CRC32-guarded section framing written in place
// into one buffer, and bounds-checked decoding that turns EVERY malformed
// input — truncated at any byte, bit-flipped in any section, sections
// reordered — into a typed DecodeError instead of UB. The corruption-sweep
// property tests in tests/persist/corruption_test.cpp enforce exactly that
// contract under ASan/UBSan.
//
// File layout (all integers little-endian):
//
//   file    := magic u32 | version u16 | kind u16 | section*
//   section := tag u32 | payload_len u64 | payload_crc u32 | payload bytes
//
// Sections are strictly ordered: the decoder asks for tags in sequence and
// a mismatch (a reordered or foreign section) is a DecodeError. The CRC
// covers the payload bytes; CRC32 detects all single-bit and all <=32-bit
// burst errors, so the per-section flip sweep is deterministic, not
// probabilistic.

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace amperebleed::persist {

/// Malformed or corrupted persisted bytes. Always carries the decoding
/// context (which file/section, byte offset) in what().
class DecodeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The storage medium failed (open/write/fsync/rename). Distinct from
/// DecodeError so the service can map it to Degraded mode while corrupted
/// bytes map to discard-and-continue.
class IoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320), the same polynomial as
/// zlib's crc32. `seed` chains incremental computation. Slicing-by-8: eight
/// bytes per table step, a bytewise loop for the tail.
[[nodiscard]] std::uint32_t crc32(std::string_view bytes,
                                  std::uint32_t seed = 0);

/// Append-only little-endian byte builder. A counting encoder (counting())
/// keeps no bytes and only adds up size(), so running a codec over one
/// first gives the exact size to allocate for the real pass.
class Encoder {
 public:
  Encoder() = default;
  /// An empty encoder whose buffer holds `capacity` bytes before it grows.
  explicit Encoder(std::size_t capacity) { buf_.reserve(capacity); }
  [[nodiscard]] static Encoder counting() {
    Encoder enc;
    enc.counting_ = true;
    return enc;
  }

  void u8(std::uint8_t v) { put(&v, 1); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// IEEE-754 bit pattern — round-trips every double (NaNs included)
  /// exactly, which is what makes restored forests bit-identical.
  void f64(double v);
  /// u64 length prefix + raw bytes.
  void str(std::string_view s);
  void bytes(std::string_view s) { put(s.data(), s.size()); }
  /// Doubles back to back with no length prefix.
  void f64_raw(std::span<const double> v);

  // Length-prefixed homogeneous vectors.
  void u64_vec(std::span<const std::uint64_t> v);
  void i32_vec(std::span<const std::int32_t> v);
  void f64_vec(std::span<const double> v);
  void u8_vec(std::span<const std::uint8_t> v);

  /// Overwrite bytes already written at `at` (in-place section framing).
  /// No-ops on a counting encoder.
  void patch_u32(std::size_t at, std::uint32_t v);
  void patch_u64(std::size_t at, std::uint64_t v);
  /// The bytes written since offset `at` (empty on a counting encoder).
  [[nodiscard]] std::string_view written_since(std::size_t at) const {
    return std::string_view(buf_).substr(counting_ ? buf_.size() : at);
  }

  [[nodiscard]] const std::string& buffer() const { return buf_; }
  [[nodiscard]] std::string take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const {
    return counting_ ? counted_ : buf_.size();
  }

 private:
  void put(const void* data, std::size_t n) {
    if (counting_) {
      counted_ += n;
    } else {
      buf_.append(static_cast<const char*>(data), n);
    }
  }
  template <typename T>
  void raw(std::span<const T> v);

  std::string buf_;
  bool counting_ = false;
  std::size_t counted_ = 0;
};

/// Bounds-checked little-endian reader over a borrowed buffer. Every
/// overrun throws DecodeError naming `context` and the byte offset.
class Decoder {
 public:
  Decoder(std::string_view data, std::string context)
      : data_(data), context_(std::move(context)) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();
  /// Borrow `n` raw bytes (no copy; valid while the underlying buffer is).
  [[nodiscard]] std::string_view bytes(std::size_t n);

  [[nodiscard]] std::vector<std::uint64_t> u64_vec();
  [[nodiscard]] std::vector<std::int32_t> i32_vec();
  [[nodiscard]] std::vector<double> f64_vec();
  [[nodiscard]] std::vector<std::uint8_t> u8_vec();

  [[nodiscard]] std::size_t offset() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  /// Throws DecodeError unless the buffer is fully consumed (trailing
  /// garbage is corruption, not padding).
  void expect_end() const;

  [[noreturn]] void fail(const std::string& what) const;

 private:
  /// Length sanity bound for vector/string prefixes: a length that cannot
  /// fit in the remaining bytes is corruption, caught before allocation.
  void check_count(std::uint64_t count, std::size_t elem_size);
  template <typename T>
  [[nodiscard]] std::vector<T> vec();

  std::string_view data_;
  std::string context_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Section framing.

/// FourCC tag, e.g. section_tag("META").
[[nodiscard]] constexpr std::uint32_t section_tag(const char (&name)[5]) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(name[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(name[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(name[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(name[3])) << 24;
}

[[nodiscard]] std::string section_tag_name(std::uint32_t tag);

/// Writes the file header then CRC-framed sections, each framed in place:
/// the payload is encoded straight into the file buffer and its length and
/// CRC are patched in when the section closes.
class FileWriter {
 public:
  /// `enc` receives the file: pass one pre-sized to the exact file size, or
  /// Encoder::counting() to measure a file without building it.
  FileWriter(std::uint32_t magic, std::uint16_t version, std::uint16_t kind,
             Encoder enc = {});
  /// Append one section (tag | len | crc32(payload) | payload).
  void section(std::uint32_t tag, std::string_view payload);
  /// Open a section and return the encoder its payload goes into; the
  /// section stays open until end_section().
  [[nodiscard]] Encoder& begin_section(std::uint32_t tag);
  /// Patch the open section's length and CRC.
  void end_section();
  [[nodiscard]] std::size_t size() const { return enc_.size(); }
  [[nodiscard]] std::string take() { return enc_.take(); }

 private:
  Encoder enc_;
  std::size_t open_ = 0;  // offset of the open section's tag
};

/// Validates the file header, then hands out sections strictly in the order
/// they were written. Any deviation — wrong magic/version/kind, wrong tag,
/// short payload, CRC mismatch, trailing bytes — is a DecodeError.
class FileReader {
 public:
  /// `context` names the file for error messages.
  FileReader(std::string_view data, std::uint32_t magic,
             std::uint16_t version, std::uint16_t kind, std::string context);

  /// The next section, which must carry `tag`. Returns the verified payload
  /// (borrowed from the input buffer).
  [[nodiscard]] std::string_view section(std::uint32_t tag);
  /// Throws unless all bytes are consumed.
  void expect_end() const { dec_.expect_end(); }

 private:
  Decoder dec_;
  std::string context_;
};

}  // namespace amperebleed::persist
