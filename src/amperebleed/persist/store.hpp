#pragma once
// Durable tenant-state store (DESIGN.md §15): one directory holding
// seq-named snapshot files plus a write-ahead journal.
//
//   <dir>/journal.bin          append-only WAL (persist/journal.hpp)
//   <dir>/snapshot-<seq>.bin   atomic-rename checkpoints (persist/state.hpp)
//
// Construction IS recovery: scan for the highest-seq snapshot that decodes
// (corrupt ones are counted and skipped, never fatal), scan the journal for
// its longest valid prefix, keep only records past the snapshot, truncate
// the torn/corrupt journal tail, and delete stale *.tmp leftovers from
// interrupted snapshot writes. The caller replays `tail()` over the decoded
// snapshot and the service is back, bit-identical.
//
// Every write path crosses faults:: storage kill-points, so the crash
// harness can kill the process at each durable intermediate state and prove
// recovery from all of them.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "amperebleed/persist/journal.hpp"
#include "amperebleed/persist/state.hpp"

namespace amperebleed::persist {

/// What recovery found — surfaced verbatim in serve.storage.* metrics so
/// every journal record is accounted for (recovered + skipped + discarded).
struct RecoveryStats {
  bool recovered = false;          // a valid snapshot or journal tail existed
  std::uint64_t snapshot_seq = 0;  // last_seq of the loaded snapshot (0: none)
  std::uint64_t snapshots_discarded = 0;  // corrupt/unreadable snapshot files
  std::uint64_t recovered_records = 0;    // journal records replayed
  std::uint64_t skipped_records = 0;      // valid but already in the snapshot
  std::uint64_t discarded_records = 0;    // torn/corrupt journal records
  std::uint64_t discarded_bytes = 0;      // journal bytes truncated away
  std::uint64_t tmp_files_removed = 0;    // interrupted snapshot leftovers
};

class TenantStore {
 public:
  struct Config {
    std::string dir;
    /// Journal records between automatic snapshots.
    std::uint64_t snapshot_every = 64;
  };

  /// Opens (creating if needed) the directory and performs recovery.
  /// Throws IoError when the directory itself is unusable; corrupted
  /// CONTENT never throws — it is discarded and counted.
  explicit TenantStore(Config config);
  ~TenantStore();

  TenantStore(const TenantStore&) = delete;
  TenantStore& operator=(const TenantStore&) = delete;

  /// The snapshot recovery loaded, if any, until take_snapshot().
  [[nodiscard]] const std::optional<ServiceSnapshot>& snapshot() const {
    return snapshot_;
  }
  /// Hand the loaded snapshot over (so its tenants can be moved into the
  /// service); the store keeps none afterwards.
  [[nodiscard]] std::optional<ServiceSnapshot> take_snapshot() {
    return std::exchange(snapshot_, std::nullopt);
  }
  /// Journal records past the snapshot, in seq order — replay these.
  [[nodiscard]] const std::vector<JournalRecord>& tail() const {
    return tail_;
  }
  [[nodiscard]] const RecoveryStats& recovery() const { return recovery_; }

  /// Sequence number of the last durable record (snapshot or journal).
  [[nodiscard]] std::uint64_t last_seq() const { return last_seq_; }
  /// Journal records appended since the last snapshot.
  [[nodiscard]] std::uint64_t records_since_snapshot() const {
    return records_since_snapshot_;
  }
  [[nodiscard]] std::uint64_t snapshot_every() const {
    return config_.snapshot_every;
  }
  [[nodiscard]] const std::string& dir() const { return config_.dir; }

  /// Append one record (record.seq must be last_seq() + 1). Throws IoError
  /// on medium failure — the caller must NOT apply the transition then.
  void append(const JournalRecord& record);

  /// Write `tenants` as snapshot-<last_seq>.bin via atomic rename, then
  /// reset the journal and prune older snapshots. Throws IoError.
  void write_snapshot(std::uint64_t last_seq,
                      std::span<const TenantView> tenants);
  /// write_snapshot over views of `snap`'s tenants.
  void write_snapshot(const ServiceSnapshot& snap);

 private:
  void recover();

  Config config_;
  std::optional<ServiceSnapshot> snapshot_;
  std::vector<JournalRecord> tail_;
  RecoveryStats recovery_;
  std::uint64_t last_seq_ = 0;
  std::uint64_t records_since_snapshot_ = 0;
  std::unique_ptr<JournalWriter> journal_;
};

}  // namespace amperebleed::persist
