#include "util/io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <utility>

namespace receipt::util::io {

namespace {

// Injection state. `g_armed` is the fast path: with no plan armed every
// hook is a single relaxed load. The rest lives behind a mutex because
// fault tests are about determinism, not throughput.
std::atomic<bool> g_armed{false};
std::atomic<bool> g_halted{false};

struct InjectionState {
  FaultPlan plan;
  uint64_t writes_seen = 0;
  uint64_t syncs_seen = 0;
  uint64_t renames_seen = 0;
  uint64_t crash_hits = 0;
};

std::mutex g_mu;
InjectionState g_state;

void FormatError(std::string* error, const char* op, const std::string& path,
                 int err) {
  if (error != nullptr) {
    *error = std::string(op) + " " + path + ": " + std::strerror(err);
  }
}

bool HaltedError(std::string* error, const char* op, const std::string& path) {
  if (g_halted.load(std::memory_order_relaxed)) {
    FormatError(error, op, path, EIO);
    return true;
  }
  return false;
}

// Returns the number of bytes WriteFully may write before failing with the
// plan's errno, or SIZE_MAX for "no injection on this call". When the
// failure fires with halt_on_write_failure, the shim halts.
size_t WriteBudget(size_t size) {
  if (!g_armed.load(std::memory_order_relaxed)) return SIZE_MAX;
  std::lock_guard<std::mutex> lock(g_mu);
  if (g_state.plan.fail_write_at == 0) return SIZE_MAX;
  if (++g_state.writes_seen != g_state.plan.fail_write_at) return SIZE_MAX;
  if (g_state.plan.halt_on_write_failure) {
    g_halted.store(true, std::memory_order_relaxed);
  }
  return std::min<size_t>(size, g_state.plan.short_write_bytes);
}

bool SyncShouldFail() {
  if (!g_armed.load(std::memory_order_relaxed)) return false;
  std::lock_guard<std::mutex> lock(g_mu);
  if (g_state.plan.fail_sync_at == 0) return false;
  return ++g_state.syncs_seen == g_state.plan.fail_sync_at;
}

bool RenameShouldFail() {
  if (!g_armed.load(std::memory_order_relaxed)) return false;
  std::lock_guard<std::mutex> lock(g_mu);
  if (g_state.plan.fail_rename_at == 0) return false;
  return ++g_state.renames_seen == g_state.plan.fail_rename_at;
}

int PlanErrno() {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_state.plan.fail_errno;
}

}  // namespace

void SetFaultPlan(const FaultPlan& plan) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_state = InjectionState{};
  g_state.plan = plan;
  g_halted.store(false, std::memory_order_relaxed);
  g_armed.store(true, std::memory_order_relaxed);
}

void ClearFaultPlan() {
  std::lock_guard<std::mutex> lock(g_mu);
  g_state = InjectionState{};
  g_armed.store(false, std::memory_order_relaxed);
  g_halted.store(false, std::memory_order_relaxed);
}

bool Halted() { return g_halted.load(std::memory_order_relaxed); }

void CrashPoint(const char* site) {
  if (!g_armed.load(std::memory_order_relaxed)) return;
  bool exit_now = false;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    if (g_state.plan.crash_site.empty() || g_state.plan.crash_site != site) {
      return;
    }
    if (++g_state.crash_hits != g_state.plan.crash_at) return;
    if (g_state.plan.crash_exit) {
      exit_now = true;
    } else {
      g_halted.store(true, std::memory_order_relaxed);
    }
  }
  if (exit_now) {
    // SIGKILL's exit code, so harnesses treat hook crashes and real kills
    // alike. _exit: no atexit handlers, no flushing — this is a crash.
    _exit(137);
  }
}

File::~File() { Close(); }

File::File(File&& other) noexcept
    : fd_(other.fd_), path_(std::move(other.path_)) {
  other.fd_ = -1;
}

File& File::operator=(File&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    other.fd_ = -1;
  }
  return *this;
}

File File::OpenAppend(const std::string& path, std::string* error) {
  File file;
  if (HaltedError(error, "open", path)) return file;
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    FormatError(error, "open", path, errno);
    return file;
  }
  file.fd_ = fd;
  file.path_ = path;
  return file;
}

File File::Create(const std::string& path, std::string* error) {
  File file;
  if (HaltedError(error, "create", path)) return file;
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    FormatError(error, "create", path, errno);
    return file;
  }
  file.fd_ = fd;
  file.path_ = path;
  return file;
}

bool File::WriteFully(const void* data, size_t size, std::string* error) {
  if (fd_ < 0) {
    FormatError(error, "write", path_, EBADF);
    return false;
  }
  if (HaltedError(error, "write", path_)) return false;
  size_t budget = WriteBudget(size);
  bool inject = budget != SIZE_MAX;
  size_t limit = inject ? budget : size;
  const char* bytes = static_cast<const char*>(data);
  size_t written = 0;
  while (written < limit) {
    ssize_t n = ::write(fd_, bytes + written, limit - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      FormatError(error, "write", path_, errno);
      return false;
    }
    written += static_cast<size_t>(n);
  }
  if (inject) {
    FormatError(error, "write", path_, PlanErrno());
    return false;
  }
  return true;
}

bool File::Sync(std::string* error) {
  if (fd_ < 0) {
    FormatError(error, "fsync", path_, EBADF);
    return false;
  }
  if (HaltedError(error, "fsync", path_)) return false;
  if (SyncShouldFail()) {
    FormatError(error, "fsync", path_, PlanErrno());
    return false;
  }
  if (::fsync(fd_) != 0) {
    FormatError(error, "fsync", path_, errno);
    return false;
  }
  return true;
}

bool File::Truncate(uint64_t size, std::string* error) {
  if (fd_ < 0) {
    FormatError(error, "ftruncate", path_, EBADF);
    return false;
  }
  if (HaltedError(error, "ftruncate", path_)) return false;
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    FormatError(error, "ftruncate", path_, errno);
    return false;
  }
  return true;
}

uint64_t File::Size() const {
  if (fd_ < 0) return 0;
  struct stat st;
  if (::fstat(fd_, &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

void File::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool ReadFileBytes(const std::string& path, std::string* out,
                   std::string* error) {
  out->clear();
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    FormatError(error, "open", path, errno);
    return false;
  }
  char buffer[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) continue;
      FormatError(error, "read", path, errno);
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    out->append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return true;
}

bool AtomicRename(const std::string& from, const std::string& to,
                  std::string* error) {
  if (HaltedError(error, "rename", from)) return false;
  if (RenameShouldFail()) {
    FormatError(error, "rename", from, PlanErrno());
    return false;
  }
  if (::rename(from.c_str(), to.c_str()) != 0) {
    FormatError(error, "rename", from, errno);
    return false;
  }
  return true;
}

bool SyncDir(const std::string& dir, std::string* error) {
  if (HaltedError(error, "fsync-dir", dir)) return false;
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    FormatError(error, "open-dir", dir, errno);
    return false;
  }
  bool ok = ::fsync(fd) == 0;
  if (!ok) FormatError(error, "fsync-dir", dir, errno);
  ::close(fd);
  return ok;
}

bool EnsureDir(const std::string& path, std::string* error) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  if (ec) {
    if (error != nullptr) {
      *error = "mkdir " + path + ": " + ec.message();
    }
    return false;
  }
  return true;
}

std::vector<std::string> ListDir(const std::string& dir, std::string* error) {
  std::vector<std::string> names;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    if (ec == std::errc::no_such_file_or_directory) return names;
    if (error != nullptr) {
      *error = "listdir " + dir + ": " + ec.message();
    }
    return names;
  }
  for (const auto& entry : it) {
    if (entry.is_regular_file(ec)) {
      names.push_back(entry.path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

bool RemoveFile(const std::string& path, std::string* error) {
  if (HaltedError(error, "unlink", path)) return false;
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    FormatError(error, "unlink", path, errno);
    return false;
  }
  return true;
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

bool TruncateFile(const std::string& path, uint64_t size, std::string* error) {
  if (HaltedError(error, "truncate", path)) return false;
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
    FormatError(error, "truncate", path, errno);
    return false;
  }
  return true;
}

}  // namespace receipt::util::io
