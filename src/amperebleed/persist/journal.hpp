#pragma once
// Write-ahead journal of tenant state transitions (DESIGN.md §15). The
// service appends a record BEFORE applying any enroll/train/retire, so a
// crash at any instant loses at most the in-flight transition — which the
// client never saw acknowledged.
//
// File layout (little-endian):
//
//   journal := header | record*
//   header  := magic u32 ("ABPS") | version u16 | kind u16 (journal)
//   record  := payload_len u32 | payload_crc u32 | payload bytes
//
// Reading never throws on corrupted content: scan_journal() returns the
// longest valid prefix (frames intact, CRCs match, sequence numbers
// strictly consecutive) plus exact accounting of what it discarded. A torn
// tail — the normal crash artifact — is one discarded record; a bit-flipped
// record mid-file ends the prefix there and counts every still-framed
// record after it. Recovery truncates the file back to the valid prefix
// before appending again, so discarded bytes never poison later appends.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "amperebleed/core/trace.hpp"
#include "amperebleed/persist/codec.hpp"

namespace amperebleed::persist {

inline constexpr std::uint16_t kKindJournal = 5;
/// Header size: magic + version + kind.
inline constexpr std::size_t kJournalHeaderBytes = 8;
/// Upper bound on one record's payload; larger length prefixes are treated
/// as corruption (keeps a flipped length bit from stalling the scan).
inline constexpr std::uint32_t kMaxRecordBytes = 1u << 28;

enum class JournalOp : std::uint8_t { Enroll = 0, Train = 1, Retire = 2 };

/// One journalled state transition. Enroll carries the full trace (samples,
/// channel, timing, validity mask) and label, so replaying the record is
/// bit-identical to re-receiving the original request.
struct JournalRecord {
  std::uint64_t seq = 0;
  JournalOp op = JournalOp::Enroll;
  std::string tenant;
  std::string label;      // Enroll only
  bool has_trace = false;  // Enroll only; invalid requests may carry none
  std::uint8_t rail = 0;
  std::uint8_t quantity = 0;
  std::int64_t start_ns = 0;
  std::int64_t period_ns = 0;
  std::vector<double> values;
  std::vector<std::uint8_t> validity;  // empty = all valid
};

/// Copy a trace into the record's trace fields (sets has_trace).
void record_set_trace(JournalRecord& record, const core::Trace& trace);
/// Reconstruct the enrolled trace bit-for-bit (gaps included). Throws
/// std::logic_error when has_trace is false.
[[nodiscard]] core::Trace trace_from_record(const JournalRecord& record);

[[nodiscard]] std::string encode_record(const JournalRecord& record);
/// Throws DecodeError on malformed payloads.
[[nodiscard]] JournalRecord decode_record(std::string_view payload,
                                          const std::string& context);

/// Result of scanning a journal byte image.
struct JournalScan {
  /// The longest valid prefix, in order. Sequence numbers are strictly
  /// consecutive within it (the first record's seq is unconstrained — the
  /// journal is reset after every snapshot).
  std::vector<JournalRecord> records;
  /// Offset of the first byte past the valid prefix (>= header size when
  /// the header was valid). Recovery truncates the file to this.
  std::uint64_t valid_bytes = 0;
  std::uint64_t recovered_records = 0;  // == records.size()
  /// Records seen past the prefix: the corrupt record itself plus every
  /// still-framed record after it (which cannot be applied once the prefix
  /// broke), plus one for an unframeable torn tail.
  std::uint64_t discarded_records = 0;
  std::uint64_t discarded_bytes = 0;
  bool header_ok = false;  // false: no/garbage header, whole file discarded
};

/// Scan a journal byte image; never throws on corrupted content.
[[nodiscard]] JournalScan scan_journal(std::string_view bytes,
                                       const std::string& context);

/// Append-side file handle. All writes go through POSIX fds with fsync
/// after every record: a record is only acknowledged once durable.
class JournalWriter {
 public:
  /// Open `path` for appending at `valid_bytes` (from a prior scan),
  /// truncating any torn/corrupt tail beyond it. `valid_bytes` == 0 (or a
  /// missing file) writes a fresh header. Throws IoError.
  JournalWriter(std::string path, std::uint64_t valid_bytes);
  ~JournalWriter();

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Frame, write and fsync one record. Throws IoError on failure; crosses
  /// the journal.* kill-points at every durable intermediate state. A
  /// failed append never leaves frame bytes behind: the file is truncated
  /// back to the last durable frame boundary before the IoError surfaces,
  /// so a later acknowledged append can never land past orphan bytes the
  /// recovery scan would then discard. (A SimulatedCrash is different — the
  /// process is dead, the torn frame on disk IS the recovery fixture.)
  void append(const JournalRecord& record);

  /// Truncate back to the bare header (after a snapshot absorbed every
  /// record) and fsync. Throws IoError.
  void reset();

 private:
  void write_all(std::string_view bytes);
  /// Undo a failed append: truncate + seek back to the last durable frame
  /// boundary and fsync. When the rollback itself fails the writer poisons
  /// itself — every later append/reset throws — because acknowledging a
  /// record after unremovable orphan bytes would hand recovery a frame it
  /// must discard.
  void rollback();

  std::string path_;
  int fd_ = -1;
  std::uint64_t end_ = 0;  // offset one past the last durable frame
  bool poisoned_ = false;  // failed rollback: orphan bytes may remain
};

}  // namespace amperebleed::persist
