#include "amperebleed/util/fs.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace amperebleed::util {

namespace {

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw std::runtime_error(what + " '" + path + "': " + std::strerror(errno));
}

}  // namespace

void atomic_write_file(const std::string& path, std::string_view bytes,
                       const AtomicWriteObserver& observer) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail("atomic_write_file: cannot open", tmp);
  // Two half-writes so the observer sees a genuinely torn intermediate
  // state between them (the crash harness arms its kill-points there).
  const std::size_t half = bytes.size() / 2;
  std::size_t written = 0;
  bool ok = true;
  while (ok && written < bytes.size()) {
    const std::size_t stop = written < half ? half : bytes.size();
    const ssize_t n = ::write(fd, bytes.data() + written, stop - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ok = false;
      break;
    }
    written += static_cast<std::size_t>(n);
    if (written == half && half < bytes.size() && observer) {
      try {
        observer("tmp-partial");
      } catch (...) {
        ::close(fd);  // crash simulation: leave the torn tmp file behind
        throw;
      }
    }
  }
  if (!ok || ::fsync(fd) != 0) {
    ::close(fd);
    ::remove(tmp.c_str());
    fail("atomic_write_file: write failed for", tmp);
  }
  if (::close(fd) != 0) {
    ::remove(tmp.c_str());
    fail("atomic_write_file: close failed for", tmp);
  }
  if (observer) observer("tmp-synced");
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    fail("atomic_write_file: rename failed for", path);
  }
  // The rename is only durable once the directory entry is synced; the
  // "renamed" kill-point must not fire before that happens-before edge.
  const std::size_t slash = path.find_last_of('/');
  fsync_dir(slash == std::string::npos ? "." : path.substr(0, slash));
  if (observer) observer("renamed");
}

void fsync_dir(const std::string& path) {
  const std::string dir = path.empty() ? "." : path;
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) fail("fsync_dir: cannot open", dir);
  if (::fsync(fd) != 0 && errno != EINVAL && errno != ENOTSUP) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail("fsync_dir: fsync failed for", dir);
  }
  ::close(fd);
}

std::string read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw std::runtime_error("read_file: cannot open '" + path + "'");
  // One allocation at the file's size: no doubling buffer, no final copy.
  struct stat st{};
  std::string bytes;
  bool ok = ::fstat(fd, &st) == 0;
  if (ok) bytes.resize(static_cast<std::size_t>(st.st_size));
  std::size_t got = 0;
  while (ok && got < bytes.size()) {
    const ssize_t n = ::read(fd, bytes.data() + got, bytes.size() - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      ok = n == 0;  // the file shrank under us: keep what was there
      break;
    }
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  if (!ok) throw std::runtime_error("read_file: read failed '" + path + "'");
  bytes.resize(got);
  return bytes;
}

bool path_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

void make_dirs(const std::string& path) {
  if (path.empty()) return;
  // Create each prefix in turn; EEXIST is fine at every level.
  for (std::size_t i = 1; i <= path.size(); ++i) {
    if (i < path.size() && path[i] != '/') continue;
    const std::string prefix = path.substr(0, i);
    if (prefix.empty() || prefix == "/") continue;
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      fail("make_dirs: cannot create", prefix);
    }
  }
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    throw std::runtime_error("make_dirs: '" + path + "' is not a directory");
  }
}

std::vector<std::string> list_dir(const std::string& path) {
  DIR* dir = ::opendir(path.c_str());
  if (dir == nullptr) fail("list_dir: cannot open", path);
  std::vector<std::string> names;
  while (const dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    names.push_back(name);
  }
  ::closedir(dir);
  std::sort(names.begin(), names.end());
  return names;
}

void remove_file(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    fail("remove_file: cannot remove", path);
  }
}

}  // namespace amperebleed::util
