#include "amperebleed/hwmon/vfs.hpp"

#include <stdexcept>
#include <utility>

#include "amperebleed/obs/obs.hpp"
#include "amperebleed/util/strings.hpp"

namespace amperebleed::hwmon {

namespace {

/// Observability tap on the permission gate itself. Every read/write result
/// — success or any distinct failure branch — increments its own counter
/// ("hwmon.vfs.read.permission-denied", ...) and lands in the access-audit
/// log, stamped with the tree's own virtual clock. No-ops (one relaxed
/// atomic load per layer) when observability is disabled.
void note_access(const VirtualFs& fs, const char* op, std::string_view path,
                 bool privileged, VfsStatus status) {
  if (obs::metrics_enabled()) {
    obs::metrics()
        .counter(util::format("hwmon.vfs.%s.%s", op,
                              std::string(vfs_status_name(status)).c_str()))
        .inc();
  }
  if (obs::audit_enabled()) {
    obs::AccessOutcome outcome = obs::AccessOutcome::Error;
    if (status == VfsStatus::Ok) {
      outcome = obs::AccessOutcome::Ok;
    } else if (status == VfsStatus::PermissionDenied) {
      outcome = obs::AccessOutcome::Denied;
    }
    obs::audit_log().record(fs.now(), path, privileged, outcome);
  }
}

}  // namespace

std::string_view vfs_status_name(VfsStatus s) {
  // -Wswitch flags a missing case here; kVfsStatusCount static_asserts keep
  // kAllVfsStatuses (and thus the per-status obs counters and the
  // vfs_status_from_name inverse, which both iterate it) in lock-step.
  static_assert(kVfsStatusCount == 8,
                "new VfsStatus: add a case below and extend kAllVfsStatuses");
  switch (s) {
    case VfsStatus::Ok:
      return "ok";
    case VfsStatus::NotFound:
      return "not-found";
    case VfsStatus::PermissionDenied:
      return "permission-denied";
    case VfsStatus::IsDirectory:
      return "is-directory";
    case VfsStatus::NotDirectory:
      return "not-directory";
    case VfsStatus::NotWritable:
      return "not-writable";
    case VfsStatus::InvalidArgument:
      return "invalid-argument";
    case VfsStatus::TryAgain:
      return "try-again";
  }
  return "unknown";
}

std::optional<VfsStatus> vfs_status_from_name(std::string_view name) {
  for (VfsStatus s : kAllVfsStatuses) {
    if (vfs_status_name(s) == name) return s;
  }
  return std::nullopt;
}

VirtualFs::VirtualFs() : root_(std::make_unique<Node>()) {
  root_->directory = true;
  root_->mode = 0755;
}

const VirtualFs::Node* VirtualFs::find(std::string_view path) const {
  const Node* node = root_.get();
  for (const auto& component : util::split_path(path)) {
    if (!node->directory) return nullptr;
    const auto it = node->children.find(component);
    if (it == node->children.end()) return nullptr;
    node = it->second.get();
  }
  return node;
}

VirtualFs::Node* VirtualFs::find(std::string_view path) {
  return const_cast<Node*>(std::as_const(*this).find(path));
}

VirtualFs::Node* VirtualFs::ensure_dirs(
    const std::vector<std::string>& components, std::size_t count) {
  Node* node = root_.get();
  for (std::size_t i = 0; i < count; ++i) {
    auto& child = node->children[components[i]];
    if (!child) {
      child = std::make_unique<Node>();
      child->directory = true;
      child->mode = 0755;
    } else if (!child->directory) {
      throw std::runtime_error("VirtualFs: '" + components[i] +
                               "' exists as a file");
    }
    node = child.get();
  }
  return node;
}

void VirtualFs::mkdirs(std::string_view path) {
  const auto components = util::split_path(path);
  ensure_dirs(components, components.size());
}

void VirtualFs::add_file(std::string_view path, int mode, ReadFn reader,
                         WriteFn writer) {
  const auto components = util::split_path(path);
  if (components.empty()) {
    throw std::invalid_argument("VirtualFs::add_file: empty path");
  }
  Node* parent = ensure_dirs(components, components.size() - 1);
  const std::string& leaf = components.back();
  if (parent->children.count(leaf) != 0) {
    throw std::runtime_error("VirtualFs::add_file: '" + std::string(path) +
                             "' already exists");
  }
  auto node = std::make_unique<Node>();
  node->directory = false;
  node->mode = mode;
  node->reader = std::move(reader);
  node->writer = std::move(writer);
  parent->children[leaf] = std::move(node);
}

void VirtualFs::chmod(std::string_view path, int mode) {
  Node* node = find(path);
  if (node == nullptr) {
    throw std::runtime_error("VirtualFs::chmod: no such file '" +
                             std::string(path) + "'");
  }
  if (node->directory) {
    throw std::runtime_error("VirtualFs::chmod: '" + std::string(path) +
                             "' is a directory");
  }
  node->mode = mode;
}

VfsResult VirtualFs::read(std::string_view path, bool privileged) const {
  VfsResult result = [&]() -> VfsResult {
    const Node* node = find(path);
    if (node == nullptr) return {VfsStatus::NotFound, {}};
    if (node->directory) return {VfsStatus::IsDirectory, {}};
    const bool readable =
        privileged ? (node->mode & 0400) != 0 : (node->mode & 0004) != 0;
    if (!readable) return {VfsStatus::PermissionDenied, {}};
    if (!node->reader) return {VfsStatus::Ok, {}};
    return {VfsStatus::Ok, node->reader()};
  }();
  // Fault injection happens between the clean read and the accounting, so
  // an injected EAGAIN/ENOENT/torn read is indistinguishable from a real
  // one to every consumer — including the per-status counters below.
  if (read_fault_hook_) {
    result = read_fault_hook_(path, privileged, std::move(result));
  }
  note_access(*this, "read", path, privileged, result.status);
  return result;
}

void VirtualFs::set_read_fault_hook(ReadFaultHook hook) {
  if (hook && read_fault_hook_) {
    throw std::logic_error(
        "VirtualFs: a read-fault hook is already installed");
  }
  read_fault_hook_ = std::move(hook);
}

VfsResult VirtualFs::write(std::string_view path, std::string_view data,
                           bool privileged) {
  VfsResult result = [&]() -> VfsResult {
    Node* node = find(path);
    if (node == nullptr) return {VfsStatus::NotFound, {}};
    if (node->directory) return {VfsStatus::IsDirectory, {}};
    const bool writable =
        privileged ? (node->mode & 0200) != 0 : (node->mode & 0002) != 0;
    if (!writable) return {VfsStatus::PermissionDenied, {}};
    if (!node->writer) return {VfsStatus::NotWritable, {}};
    if (!node->writer(data)) return {VfsStatus::InvalidArgument, {}};
    return {VfsStatus::Ok, {}};
  }();
  note_access(*this, "write", path, privileged, result.status);
  return result;
}

std::vector<std::string> VirtualFs::list(std::string_view path) const {
  const Node* node = find(path);
  if (node == nullptr || !node->directory) return {};
  std::vector<std::string> names;
  names.reserve(node->children.size());
  for (const auto& [name, child] : node->children) names.push_back(name);
  return names;  // std::map keeps them sorted
}

bool VirtualFs::exists(std::string_view path) const {
  return find(path) != nullptr;
}

bool VirtualFs::is_directory(std::string_view path) const {
  const Node* node = find(path);
  return node != nullptr && node->directory;
}

int VirtualFs::mode_of(std::string_view path) const {
  const Node* node = find(path);
  return node == nullptr ? -1 : node->mode;
}

}  // namespace amperebleed::hwmon
