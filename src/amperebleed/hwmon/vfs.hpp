#pragma once
// An in-memory sysfs: directory tree with attribute files backed by
// read/write callbacks and POSIX-style mode bits. This is the unprivileged
// interface the attack uses — reads go through the same permission checks a
// real /sys/class/hwmon tree would apply.

#include <cstddef>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "amperebleed/sim/time.hpp"

namespace amperebleed::hwmon {

enum class VfsStatus {
  Ok,
  NotFound,
  PermissionDenied,
  IsDirectory,
  NotDirectory,
  NotWritable,
  InvalidArgument,  // write rejected by the attribute (EINVAL)
  TryAgain,         // transient failure (EAGAIN) — retry may succeed
};

/// Number of VfsStatus values. When adding a status, bump this in the same
/// change — every table below static_asserts against it, so a new status
/// cannot silently miss kAllVfsStatuses, the name map, or the per-status
/// obs counters (which derive their names from vfs_status_name).
inline constexpr std::size_t kVfsStatusCount = 8;

/// All statuses, in declaration order (for exhaustive iteration in tests
/// and per-status counter registration).
inline constexpr VfsStatus kAllVfsStatuses[] = {
    VfsStatus::Ok,          VfsStatus::NotFound,
    VfsStatus::PermissionDenied, VfsStatus::IsDirectory,
    VfsStatus::NotDirectory,     VfsStatus::NotWritable,
    VfsStatus::InvalidArgument,  VfsStatus::TryAgain,
};
static_assert(std::size(kAllVfsStatuses) == kVfsStatusCount,
              "kAllVfsStatuses must enumerate every VfsStatus exactly once");

std::string_view vfs_status_name(VfsStatus s);
/// Inverse of vfs_status_name; nullopt for unknown names.
std::optional<VfsStatus> vfs_status_from_name(std::string_view name);

struct VfsResult {
  VfsStatus status = VfsStatus::Ok;
  std::string data;  // file contents on successful read

  [[nodiscard]] bool ok() const { return status == VfsStatus::Ok; }
};

/// Attribute read callback: produce the current file contents.
using ReadFn = std::function<std::string()>;
/// Attribute write callback: apply the value; return false to signal EINVAL.
using WriteFn = std::function<bool(std::string_view)>;

/// Read-fault hook: invoked after a read's clean result is computed and may
/// replace it — the seam `faults::FaultInjector` uses to model EAGAIN,
/// driver rebinds, permission flaps, torn/garbage attribute text and stuck
/// conversion registers without the filesystem knowing about fault plans.
/// The surfaced (possibly faulted) status is what lands in the per-status
/// obs counters and the access-audit log.
using ReadFaultHook =
    std::function<VfsResult(std::string_view path, bool privileged,
                            VfsResult clean)>;

class VirtualFs {
 public:
  VirtualFs();

  /// Create a directory (and any missing parents). Throws if a path
  /// component exists as a file.
  void mkdirs(std::string_view path);

  /// Register an attribute file. `mode` uses octal sysfs conventions
  /// (e.g. 0444 world-readable, 0644 root-writable, 0400 root-only read).
  /// Parent directories are created as needed. Throws on duplicates.
  void add_file(std::string_view path, int mode, ReadFn reader,
                WriteFn writer = nullptr);

  /// Change an existing file's mode bits; throws if missing or a directory.
  void chmod(std::string_view path, int mode);

  /// Read a file. `privileged` models uid 0.
  [[nodiscard]] VfsResult read(std::string_view path, bool privileged) const;

  /// Install (or clear, with nullptr) the read-fault hook. At most one hook
  /// is active; installing over an existing hook throws so two injectors
  /// cannot silently fight over the same tree.
  void set_read_fault_hook(ReadFaultHook hook);
  [[nodiscard]] bool has_read_fault_hook() const {
    return static_cast<bool>(read_fault_hook_);
  }

  /// Install the virtual clock of the platform this tree belongs to (the
  /// owning SoC wires its now() through HwmonSubsystem::set_clock). It
  /// timestamps this tree's access-audit records and is read only while
  /// audit is on.
  void set_clock(std::function<sim::TimeNs()> now_fn) {
    now_fn_ = std::move(now_fn);
  }
  [[nodiscard]] bool has_clock() const { return static_cast<bool>(now_fn_); }
  /// The clock's current time; -1 (untimestamped) without a clock.
  [[nodiscard]] sim::TimeNs now() const {
    return now_fn_ ? now_fn_() : sim::TimeNs{-1};
  }

  /// Write a file.
  VfsResult write(std::string_view path, std::string_view data,
                  bool privileged);

  /// Sorted names of a directory's entries.
  [[nodiscard]] std::vector<std::string> list(std::string_view path) const;

  [[nodiscard]] bool exists(std::string_view path) const;
  [[nodiscard]] bool is_directory(std::string_view path) const;
  [[nodiscard]] int mode_of(std::string_view path) const;  // -1 if missing

 private:
  struct Node {
    bool directory = false;
    int mode = 0;
    ReadFn reader;
    WriteFn writer;
    std::map<std::string, std::unique_ptr<Node>, std::less<>> children;
  };

  [[nodiscard]] const Node* find(std::string_view path) const;
  [[nodiscard]] Node* find(std::string_view path);
  Node* ensure_dirs(const std::vector<std::string>& components,
                    std::size_t count);

  std::unique_ptr<Node> root_;
  ReadFaultHook read_fault_hook_;
  std::function<sim::TimeNs()> now_fn_;
};

}  // namespace amperebleed::hwmon
