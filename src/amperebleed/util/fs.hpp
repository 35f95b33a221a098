#pragma once
// Small filesystem helpers shared by the obs metrics snapshots and the
// persist durability layer. The centerpiece is atomic_write_file: write-temp +
// fsync + rename, so a reader (or a crash-recovery scan) either sees the
// previous complete file or the new complete file, never a torn one.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace amperebleed::util {

/// Progress callback for atomic_write_file. Invoked after each durable step
/// with a phase name ("tmp-partial", "tmp-synced", "renamed"); the persist
/// layer hangs its deterministic kill-points off these so a crash-recovery
/// harness can interrupt the write at every intermediate state. A throwing
/// observer aborts the write mid-flight and deliberately leaves the
/// temporary file behind — exactly what a real crash would.
using AtomicWriteObserver = std::function<void(std::string_view phase)>;

/// Write `bytes` to `path` atomically: write `path + ".tmp"`, fsync it,
/// rename over `path`, then fsync the containing directory so the rename
/// itself is durable (without that a power cut can resurrect the old file
/// even though later writes survived). On rename failure the temporary is
/// removed. Throws std::runtime_error on any IO failure.
void atomic_write_file(const std::string& path, std::string_view bytes,
                       const AtomicWriteObserver& observer = {});

/// fsync a directory so recent entry changes in it (create/rename/unlink)
/// are durable. Filesystems that reject directory fsync (EINVAL/ENOTSUP)
/// are tolerated; anything else throws std::runtime_error.
void fsync_dir(const std::string& path);

/// Whole file as a byte string. Throws std::runtime_error when the file
/// cannot be opened or read.
[[nodiscard]] std::string read_file(const std::string& path);

/// True when `path` names an existing file or directory.
[[nodiscard]] bool path_exists(const std::string& path);

/// Create `path` (and missing parents) as a directory. Throws on failure;
/// an already existing directory is not an error.
void make_dirs(const std::string& path);

/// Names (not paths) of the directory's entries, sorted, '.'/'..' excluded.
/// Throws std::runtime_error when the directory cannot be opened.
[[nodiscard]] std::vector<std::string> list_dir(const std::string& path);

/// Delete a file; missing files are not an error. Throws on other failures.
void remove_file(const std::string& path);

}  // namespace amperebleed::util
