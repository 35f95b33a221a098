#include "amperebleed/persist/store.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "amperebleed/faults/faults.hpp"
#include "amperebleed/util/fs.hpp"

namespace amperebleed::persist {

namespace {

constexpr std::string_view kJournalName = "journal.bin";
constexpr std::string_view kSnapshotPrefix = "snapshot-";
constexpr std::string_view kSnapshotSuffix = ".bin";
constexpr std::string_view kTmpSuffix = ".tmp";

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

/// snapshot-<seq>.bin -> seq; nullopt for anything else.
std::optional<std::uint64_t> snapshot_seq_of(std::string_view name) {
  if (name.size() <= kSnapshotPrefix.size() + kSnapshotSuffix.size() ||
      name.substr(0, kSnapshotPrefix.size()) != kSnapshotPrefix ||
      !ends_with(name, kSnapshotSuffix)) {
    return std::nullopt;
  }
  const std::string_view digits = name.substr(
      kSnapshotPrefix.size(),
      name.size() - kSnapshotPrefix.size() - kSnapshotSuffix.size());
  std::uint64_t seq = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (seq > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      // Would wrap u64 — a forged/garbage name that must never shadow the
      // genuine newest snapshot.
      return std::nullopt;
    }
    seq = seq * 10 + digit;
  }
  return seq;
}

std::string join(const std::string& dir, std::string_view name) {
  std::string path = dir;
  if (!path.empty() && path.back() != '/') path.push_back('/');
  path.append(name);
  return path;
}

}  // namespace

TenantStore::TenantStore(Config config) : config_(std::move(config)) {
  if (config_.dir.empty()) {
    throw std::logic_error("TenantStore: empty directory");
  }
  if (config_.snapshot_every == 0) config_.snapshot_every = 1;
  util::make_dirs(config_.dir);
  recover();
}

TenantStore::~TenantStore() = default;

void TenantStore::recover() {
  // Interrupted atomic writes leave *.tmp files; they were never renamed
  // into place, so they carry no durable state — delete them.
  std::vector<std::pair<std::uint64_t, std::string>> snapshots;
  for (const std::string& name : util::list_dir(config_.dir)) {
    if (ends_with(name, kTmpSuffix)) {
      util::remove_file(join(config_.dir, name));
      ++recovery_.tmp_files_removed;
      continue;
    }
    if (const auto seq = snapshot_seq_of(name)) {
      snapshots.emplace_back(*seq, name);
    }
  }

  // Newest snapshot that decodes wins; corrupt ones are counted, not fatal.
  std::sort(snapshots.begin(), snapshots.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (const auto& [seq, name] : snapshots) {
    if (snapshot_.has_value()) break;
    const std::string path = join(config_.dir, name);
    try {
      snapshot_ = decode_snapshot(util::read_file(path), path);
    } catch (const DecodeError&) {
      ++recovery_.snapshots_discarded;
    } catch (const std::runtime_error&) {  // unreadable file
      ++recovery_.snapshots_discarded;
    }
  }
  const std::uint64_t snap_seq =
      snapshot_.has_value() ? snapshot_->last_seq : 0;
  recovery_.snapshot_seq = snap_seq;

  // Journal: longest valid prefix, then drop what the snapshot already
  // absorbed. The on-disk tail past the valid prefix is truncated by the
  // writer below so it can never poison later appends.
  const std::string journal_path = join(config_.dir, kJournalName);
  JournalScan scan;
  if (util::path_exists(journal_path)) {
    scan = scan_journal(util::read_file(journal_path), journal_path);
  }
  recovery_.discarded_records = scan.discarded_records;
  recovery_.discarded_bytes = scan.discarded_bytes;
  std::uint64_t truncate_to = scan.valid_bytes;
  for (JournalRecord& record : scan.records) {
    if (record.seq <= snap_seq) {
      ++recovery_.skipped_records;
    } else {
      tail_.push_back(std::move(record));
    }
  }
  if (!tail_.empty() && tail_.front().seq != snap_seq + 1) {
    // The journal's records do not connect to the recovered snapshot (e.g.
    // the newest snapshot was corrupt and we fell back to an older one).
    // Applying a non-contiguous suffix would corrupt state: discard it.
    recovery_.discarded_records += tail_.size();
    recovery_.discarded_bytes += truncate_to >= kJournalHeaderBytes
                                     ? truncate_to - kJournalHeaderBytes
                                     : 0;
    tail_.clear();
    truncate_to = 0;  // rewrite a fresh header
  }
  recovery_.recovered_records = tail_.size();
  last_seq_ = tail_.empty() ? snap_seq : tail_.back().seq;
  records_since_snapshot_ = tail_.size();
  recovery_.recovered = snapshot_.has_value() || !tail_.empty();

  journal_ = std::make_unique<JournalWriter>(journal_path, truncate_to);
  // Recovery created the journal and unlinked *.tmp leftovers: sync the
  // directory so its own cleanup survives a power cut too.
  util::fsync_dir(config_.dir);
}

void TenantStore::append(const JournalRecord& record) {
  if (record.seq != last_seq_ + 1) {
    throw std::logic_error("TenantStore: append out of sequence");
  }
  journal_->append(record);
  ++last_seq_;
  ++records_since_snapshot_;
}

void TenantStore::write_snapshot(const ServiceSnapshot& snap) {
  write_snapshot(snap.last_seq, views_of(snap));
}

void TenantStore::write_snapshot(std::uint64_t last_seq,
                                 std::span<const TenantView> tenants) {
  if (!faults::storage_io_ok("snapshot.write")) {
    throw IoError("snapshot: injected IO failure in '" + config_.dir + "'");
  }
  const std::string name = std::string(kSnapshotPrefix) +
                           std::to_string(last_seq) +
                           std::string(kSnapshotSuffix);
  const std::string path = join(config_.dir, name);
  util::atomic_write_file(path, encode_snapshot(last_seq, tenants),
                          [](std::string_view phase) {
                            if (phase == "tmp-partial") {
                              faults::storage_point("snapshot.tmp_partial");
                            } else if (phase == "tmp-synced") {
                              faults::storage_point("snapshot.tmp_synced");
                            } else if (phase == "renamed") {
                              faults::storage_point("snapshot.renamed");
                            }
                          });
  // The snapshot is durable: every journalled record is absorbed, so the
  // journal resets and older snapshots become garbage. A crash anywhere in
  // here is safe — recovery prefers the newest valid snapshot and skips
  // journal records it already contains.
  journal_->reset();
  records_since_snapshot_ = 0;
  for (const std::string& other : util::list_dir(config_.dir)) {
    const auto seq = snapshot_seq_of(other);
    if (seq.has_value() && *seq != last_seq) {
      util::remove_file(join(config_.dir, other));
    }
  }
  util::fsync_dir(config_.dir);  // make the unlinks durable
  faults::storage_point("snapshot.pruned");
}

}  // namespace amperebleed::persist
