#include "amperebleed/persist/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "amperebleed/faults/faults.hpp"
#include "amperebleed/persist/state.hpp"
#include "amperebleed/power/rails.hpp"

namespace amperebleed::persist {

namespace {

constexpr std::size_t kFrameBytes = 8;  // payload_len u32 | payload_crc u32

[[noreturn]] void io_fail(const std::string& what, const std::string& path) {
  throw IoError("journal: " + what + " '" + path + "': " +
                std::strerror(errno));
}

std::string frame(std::string_view payload) {
  Encoder enc;
  enc.u32(static_cast<std::uint32_t>(payload.size()));
  enc.u32(crc32(payload));
  enc.bytes(payload);
  return enc.take();
}

std::string journal_header() {
  Encoder enc;
  enc.u32(kFileMagic);
  enc.u16(kFormatVersion);
  enc.u16(kKindJournal);
  return enc.take();
}

}  // namespace

void record_set_trace(JournalRecord& record, const core::Trace& trace) {
  record.has_trace = true;
  record.rail = static_cast<std::uint8_t>(trace.channel().rail);
  record.quantity = static_cast<std::uint8_t>(trace.channel().quantity);
  record.start_ns = trace.start().ns;
  record.period_ns = trace.period().ns;
  record.values.assign(trace.values().begin(), trace.values().end());
  record.validity.assign(trace.validity().begin(), trace.validity().end());
}

core::Trace trace_from_record(const JournalRecord& record) {
  if (!record.has_trace) {
    throw std::logic_error("journal: trace_from_record on trace-less record");
  }
  core::Channel channel;
  channel.rail = static_cast<power::Rail>(record.rail);
  channel.quantity = static_cast<core::Quantity>(record.quantity);
  core::Trace trace(channel, sim::TimeNs{record.start_ns},
                    sim::TimeNs{record.period_ns});
  trace.reserve(record.values.size());
  for (std::size_t i = 0; i < record.values.size(); ++i) {
    // push_gap re-creates the 0.0 placeholder + invalid mark, so the
    // reconstructed trace is bit-identical to the enrolled one.
    if (record.validity.empty() || record.validity[i] != 0) {
      trace.push(record.values[i]);
    } else {
      trace.push_gap();
    }
  }
  return trace;
}

std::string encode_record(const JournalRecord& record) {
  Encoder enc;
  enc.u64(record.seq);
  enc.u8(static_cast<std::uint8_t>(record.op));
  enc.str(record.tenant);
  enc.str(record.label);
  enc.u8(record.has_trace ? 1 : 0);
  if (record.has_trace) {
    enc.u8(record.rail);
    enc.u8(record.quantity);
    enc.i64(record.start_ns);
    enc.i64(record.period_ns);
    enc.f64_vec(record.values);
    enc.u8_vec(record.validity);
  }
  return enc.take();
}

JournalRecord decode_record(std::string_view payload,
                            const std::string& context) {
  Decoder dec(payload, context);
  JournalRecord record;
  record.seq = dec.u64();
  const std::uint8_t op = dec.u8();
  if (op > 2) dec.fail("invalid journal op " + std::to_string(op));
  record.op = static_cast<JournalOp>(op);
  record.tenant = dec.str();
  record.label = dec.str();
  record.has_trace = dec.u8() != 0;
  if (record.has_trace) {
    record.rail = dec.u8();
    if (record.rail >= power::kRailCount) {
      dec.fail("invalid rail " + std::to_string(record.rail));
    }
    record.quantity = dec.u8();
    if (record.quantity > 2) {
      dec.fail("invalid quantity " + std::to_string(record.quantity));
    }
    record.start_ns = dec.i64();
    record.period_ns = dec.i64();
    record.values = dec.f64_vec();
    record.validity = dec.u8_vec();
    if (!record.validity.empty() &&
        record.validity.size() != record.values.size()) {
      dec.fail("validity mask length disagrees with sample count");
    }
  }
  dec.expect_end();
  return record;
}

JournalScan scan_journal(std::string_view bytes, const std::string& context) {
  JournalScan scan;

  // Header: anything short or mismatched discards the whole file.
  if (bytes.size() < kJournalHeaderBytes) {
    scan.discarded_bytes = bytes.size();
    scan.discarded_records = bytes.empty() ? 0 : 1;
    return scan;
  }
  {
    Decoder head(bytes.substr(0, kJournalHeaderBytes), context + "/header");
    const std::uint32_t magic = head.u32();
    const std::uint16_t version = head.u16();
    const std::uint16_t kind = head.u16();
    if (magic != kFileMagic || version != kFormatVersion ||
        kind != kKindJournal) {
      scan.discarded_bytes = bytes.size();
      scan.discarded_records = 1;
      return scan;
    }
  }
  scan.header_ok = true;
  scan.valid_bytes = kJournalHeaderBytes;

  // Phase 1: the longest valid prefix. A frame is valid when the length is
  // plausible, the payload is fully present, the CRC matches, the payload
  // decodes, and its seq continues the previous record's.
  std::size_t pos = kJournalHeaderBytes;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < kFrameBytes) break;  // torn frame header
    Decoder head(bytes.substr(pos, kFrameBytes), context + "/frame");
    const std::uint32_t len = head.u32();
    const std::uint32_t crc = head.u32();
    if (len > kMaxRecordBytes || bytes.size() - pos - kFrameBytes < len) {
      break;  // implausible length or torn payload
    }
    const std::string_view payload = bytes.substr(pos + kFrameBytes, len);
    if (crc32(payload) != crc) break;
    JournalRecord record;
    try {
      record = decode_record(
          payload, context + "/record[" +
                       std::to_string(scan.records.size()) + "]");
    } catch (const DecodeError&) {
      break;  // CRC-valid but structurally bad: end of trusted prefix
    }
    if (!scan.records.empty() &&
        record.seq != scan.records.back().seq + 1) {
      break;  // sequence break: a record was lost or reordered
    }
    scan.records.push_back(std::move(record));
    pos += kFrameBytes + len;
    scan.valid_bytes = pos;
  }
  scan.recovered_records = scan.records.size();

  // Phase 2: count what the prefix break orphaned. Frame-walk only — the
  // contents are untrusted, we just want honest discard accounting. The
  // first un-frameable stretch (torn tail or garbage) counts as one record
  // and ends the walk.
  scan.discarded_bytes = bytes.size() - scan.valid_bytes;
  std::size_t tail = scan.valid_bytes;
  while (tail < bytes.size()) {
    if (bytes.size() - tail < kFrameBytes) {
      ++scan.discarded_records;
      break;
    }
    Decoder head(bytes.substr(tail, kFrameBytes), context + "/frame");
    const std::uint32_t len = head.u32();
    (void)head.u32();
    if (len > kMaxRecordBytes || bytes.size() - tail - kFrameBytes < len) {
      ++scan.discarded_records;
      break;
    }
    ++scan.discarded_records;
    tail += kFrameBytes + len;
  }
  return scan;
}

// ---------------------------------------------------------------------------
// JournalWriter.

JournalWriter::JournalWriter(std::string path, std::uint64_t valid_bytes)
    : path_(std::move(path)) {
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd_ < 0) io_fail("open", path_);
  const bool fresh = valid_bytes < kJournalHeaderBytes;
  const off_t keep =
      fresh ? 0 : static_cast<off_t>(valid_bytes);
  if (::ftruncate(fd_, keep) != 0) io_fail("truncate", path_);
  if (::lseek(fd_, keep, SEEK_SET) < 0) io_fail("seek", path_);
  if (fresh) write_all(journal_header());
  if (::fsync(fd_) != 0) io_fail("fsync", path_);
  end_ = fresh ? kJournalHeaderBytes : valid_bytes;
}

JournalWriter::~JournalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void JournalWriter::write_all(std::string_view bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd_, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      io_fail("write", path_);
    }
    done += static_cast<std::size_t>(n);
  }
}

void JournalWriter::append(const JournalRecord& record) {
  if (poisoned_) {
    throw IoError("journal: writer disabled after failed rollback on '" +
                  path_ + "'");
  }
  if (!faults::storage_io_ok("journal.append")) {
    throw IoError("journal: injected IO failure on append to '" + path_ +
                  "'");
  }
  const std::string payload = encode_record(record);
  const std::string framed = frame(payload);
  // Write the frame in two halves so an armed crash between them leaves a
  // genuinely torn record on disk — the artifact recovery must tolerate.
  //
  // An IO FAILURE is different from a crash: the service stays up, answers
  // storage-unavailable and does NOT apply the op — so the frame bytes must
  // not stay behind either. Without the rollback a later acknowledged
  // append lands past the orphan bytes, where the prefix scan (seq break)
  // discards it on recovery: an acked record silently vanishes while the
  // orphan — never applied — replays. SimulatedCrash deliberately bypasses
  // the catch (it does not derive from IoError): a dead process cannot
  // clean up.
  const std::size_t half = framed.size() / 2;
  try {
    write_all(std::string_view(framed).substr(0, half));
    faults::storage_point("journal.append.partial");
    write_all(std::string_view(framed).substr(half));
    faults::storage_point("journal.append.written");
    if (!faults::storage_io_ok("journal.append.fsync")) {
      throw IoError("journal: injected IO failure on fsync of '" + path_ +
                    "'");
    }
    if (::fsync(fd_) != 0) io_fail("fsync", path_);
  } catch (const IoError&) {
    rollback();
    throw;
  }
  end_ += framed.size();
  faults::storage_point("journal.append.synced");
}

void JournalWriter::rollback() {
  if (::ftruncate(fd_, static_cast<off_t>(end_)) != 0 ||
      ::lseek(fd_, static_cast<off_t>(end_), SEEK_SET) < 0 ||
      ::fsync(fd_) != 0) {
    poisoned_ = true;
  }
}

void JournalWriter::reset() {
  if (poisoned_) {
    throw IoError("journal: writer disabled after failed rollback on '" +
                  path_ + "'");
  }
  if (!faults::storage_io_ok("journal.reset")) {
    throw IoError("journal: injected IO failure on reset of '" + path_ + "'");
  }
  if (::ftruncate(fd_, static_cast<off_t>(kJournalHeaderBytes)) != 0) {
    io_fail("truncate", path_);  // nothing changed; the writer stays usable
  }
  end_ = kJournalHeaderBytes;
  if (::lseek(fd_, static_cast<off_t>(kJournalHeaderBytes), SEEK_SET) < 0) {
    poisoned_ = true;  // file position unknown relative to end_
    io_fail("seek", path_);
  }
  if (::fsync(fd_) != 0) {
    poisoned_ = true;  // dirty-page state undefined after a failed fsync
    io_fail("fsync", path_);
  }
  faults::storage_point("journal.reset.synced");
}

}  // namespace amperebleed::persist
