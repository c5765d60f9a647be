#ifndef RECEIPT_UTIL_IO_H_
#define RECEIPT_UTIL_IO_H_

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace receipt::util::io {

// ---------------------------------------------------------------------------
// Fault injection. Every filesystem primitive below consults one global
// plan, so the durability layer's failure handling can be *proven* against
// injected EIO, torn writes, and crashes at named sites instead of hoped
// correct. Tests arm the plan with SetFaultPlan.
// ---------------------------------------------------------------------------

/// A deterministic fault-injection plan. Counters are 1-based and global
/// across all files: `fail_write_at = 3` fails the third WriteFully call
/// issued anywhere in the process after the plan was armed.
struct FaultPlan {
  /// Fail the Nth WriteFully with `fail_errno` after writing only
  /// `short_write_bytes` of the buffer (0 = fail before writing anything —
  /// a clean EIO; nonzero = a torn write). 0 disables.
  uint64_t fail_write_at = 0;
  uint64_t short_write_bytes = 0;
  /// When true, an injected write failure also halts the shim (see
  /// `crash_site`): the torn bytes stay on disk because even the caller's
  /// cleanup truncate fails — the torn-tail recovery scenario.
  bool halt_on_write_failure = false;

  /// Fail the Nth Sync call. 0 disables.
  uint64_t fail_sync_at = 0;

  /// Fail the Nth AtomicRename call. 0 disables.
  uint64_t fail_rename_at = 0;

  int fail_errno = EIO;

  /// Crash-point hook: when CrashPoint(`crash_site`) is reached for the
  /// `crash_at`th time, either _exit(137) immediately (`crash_exit`, for
  /// forked child processes) or *halt* the shim — every subsequent
  /// primitive fails with EIO, exactly the disk state a real crash at that
  /// site would leave behind, without killing the test process.
  std::string crash_site;
  uint64_t crash_at = 1;
  bool crash_exit = false;
};

/// Arms `plan` and resets all injection counters. Thread-safe.
void SetFaultPlan(const FaultPlan& plan);

/// Disarms injection (including a halted shim) and resets counters.
void ClearFaultPlan();

/// True once a crash-halt site (or halting write failure) has tripped:
/// every shim primitive now fails with EIO.
bool Halted();

/// Named crash-point hook. Durability code calls this between the IO
/// operations whose ordering it stakes correctness on (e.g.
/// "journal.append.pre-fsync", "snapshot.rename"); with no armed plan it is
/// one relaxed atomic load.
void CrashPoint(const char* site);

// ---------------------------------------------------------------------------
// File shim: thin RAII wrappers over POSIX fds with full-write/EINTR
// handling and the injection hooks above. All functions set *error (when
// provided) to "<op> <path>: <strerror>" on failure.
// ---------------------------------------------------------------------------

/// A writable file. Move-only; the destructor closes without syncing.
class File {
 public:
  File() = default;
  ~File();
  File(const File&) = delete;
  File& operator=(const File&) = delete;
  File(File&& other) noexcept;
  File& operator=(File&& other) noexcept;

  /// Opens for appending, creating the file if needed.
  static File OpenAppend(const std::string& path, std::string* error);
  /// Creates (or truncates) for writing.
  static File Create(const std::string& path, std::string* error);

  bool valid() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  /// Writes all `size` bytes, looping on EINTR and partial writes.
  bool WriteFully(const void* data, size_t size, std::string* error);
  /// fsync().
  bool Sync(std::string* error);
  /// ftruncate() to `size` bytes.
  bool Truncate(uint64_t size, std::string* error);
  /// Current size in bytes (0 on error).
  uint64_t Size() const;

  void Close();

 private:
  int fd_ = -1;
  std::string path_;
};

/// Reads the whole file into *out. Not injection-counted (recovery must be
/// able to read whatever the crash left).
bool ReadFileBytes(const std::string& path, std::string* out,
                   std::string* error);

/// rename(), injection-counted — the atomic-install primitive snapshots
/// stake their all-or-nothing guarantee on.
bool AtomicRename(const std::string& from, const std::string& to,
                  std::string* error);

/// fsync() on a directory, making renames/creates/unlinks inside durable.
bool SyncDir(const std::string& dir, std::string* error);

/// mkdir -p. Existing directories are fine.
bool EnsureDir(const std::string& path, std::string* error);

/// Regular-file names inside `dir`, sorted. Missing dir = empty list.
std::vector<std::string> ListDir(const std::string& dir, std::string* error);

bool RemoveFile(const std::string& path, std::string* error);

bool FileExists(const std::string& path);

/// ftruncate via path (recovery's torn-tail cut).
bool TruncateFile(const std::string& path, uint64_t size, std::string* error);

}  // namespace receipt::util::io

#endif  // RECEIPT_UTIL_IO_H_
