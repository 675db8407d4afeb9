#include "storage/file_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "obs/metrics.h"
#include "util/fault.h"
#include "util/sync.h"

namespace lyric {
namespace storage {

namespace {

Status Errno(const char* op, const std::string& path) {
  return Status::Internal(std::string(op) + " '" + path +
                          "' failed: " + std::strerror(errno));
}

Status InjectedFault(const char* op) {
  LYRIC_OBS_COUNT("storage.fault.injected_io");
  return Status::Unavailable(std::string("injected fault: storage ") + op);
}

// ArmCrashBudget(n) (LYRIC_STORAGE_CRASH_AT=<n>): _exit(137) once n bytes
// of crash-accounted (WAL) appends have been written; the byte prefix
// below n IS written first, so the on-disk state is exactly a kill -9 at
// WAL offset n. Negative when unarmed. The counter is process-wide.
std::atomic<int64_t> g_crash_budget{-1};

// ArmDiskFull(n) (LYRIC_STORAGE_FULL_AT=<n>): the write that would push
// total written bytes past n fails whole with kResourceExhausted, and so
// does every write after it — sticky, like a genuinely full filesystem.
// The armed flag is separate from the budget because the budget keeps
// burning below zero once "full"; a negative budget with the flag up
// still means ENOSPC. The counter is process-wide.
std::atomic<int64_t> g_full_budget{-1};
std::atomic<bool> g_full_armed{false};

// HoldSyncsForTesting: while `armed`, File::Sync parks in ParkIfHeld
// until ReleaseSyncsForTesting bumps the generation. The flag outside the
// lock keeps the unarmed path to one atomic load.
std::atomic<bool> g_sync_hold_armed{false};

struct SyncHold {
  sync::Mutex mu{sync::LockRank::kUnranked, "sync_hold"};
  sync::CondVar changed;
  bool armed LYRIC_GUARDED_BY(mu) = false;
  uint64_t generation LYRIC_GUARDED_BY(mu) = 0;
  size_t parked LYRIC_GUARDED_BY(mu) = 0;
  std::string parked_path LYRIC_GUARDED_BY(mu);
  Status outcome LYRIC_GUARDED_BY(mu);
};

SyncHold& Hold() {
  static SyncHold* hold = new SyncHold();
  return *hold;
}

// Parks the calling sync while the hold is armed; returns how it ends
// (OK: go on and sync).
Status ParkIfHeld(const std::string& path) {
  if (!g_sync_hold_armed.load(std::memory_order_acquire)) return Status::OK();
  SyncHold& hold = Hold();
  sync::MutexLock lock(hold.mu);
  if (!hold.armed) return Status::OK();
  const uint64_t generation = hold.generation;
  ++hold.parked;
  hold.parked_path = path;
  hold.changed.NotifyAll();
  while (hold.generation == generation) hold.changed.Wait(hold.mu);
  --hold.parked;
  return hold.outcome;
}

}  // namespace

void HoldSyncsForTesting() {
  SyncHold& hold = Hold();
  sync::MutexLock lock(hold.mu);
  hold.armed = true;
  g_sync_hold_armed.store(true, std::memory_order_release);
}

std::string WaitForHeldSyncForTesting(uint64_t timeout_ms) {
  SyncHold& hold = Hold();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  sync::MutexLock lock(hold.mu);
  while (hold.parked == 0) {
    if (hold.changed.WaitUntil(hold.mu, deadline)) break;
  }
  return hold.parked == 0 ? std::string() : hold.parked_path;
}

void ReleaseSyncsForTesting(const Status& outcome) {
  SyncHold& hold = Hold();
  sync::MutexLock lock(hold.mu);
  hold.armed = false;
  g_sync_hold_armed.store(false, std::memory_order_release);
  hold.outcome = outcome;
  ++hold.generation;
  hold.changed.NotifyAll();
}

int64_t CrashBudgetRemainingForTesting() {
  return g_crash_budget.load(std::memory_order_relaxed);
}

void ArmCrashBudget(int64_t budget) {
  g_crash_budget.store(budget, std::memory_order_relaxed);
}

int64_t DiskFullBudgetRemainingForTesting() {
  return g_full_budget.load(std::memory_order_relaxed);
}

void ArmDiskFull(int64_t budget) {
  g_full_budget.store(budget, std::memory_order_relaxed);
  g_full_armed.store(budget >= 0, std::memory_order_relaxed);
}

File::~File() {
  if (fd_ >= 0) ::close(fd_);
}

File::File(File&& other) noexcept
    : fd_(other.fd_), path_(std::move(other.path_)) {
  other.fd_ = -1;
}

File& File::operator=(File&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    other.fd_ = -1;
  }
  return *this;
}

Result<File> File::OpenReadWrite(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return Errno("open", path);
  File f;
  f.fd_ = fd;
  f.path_ = path;
  return f;
}

Result<File> File::OpenReadOnly(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("no such file: '" + path + "'");
    }
    return Errno("open", path);
  }
  File f;
  f.fd_ = fd;
  f.path_ = path;
  return f;
}

Status File::ReadAt(uint64_t offset, void* buf, size_t len) const {
  LYRIC_ASSIGN_OR_RETURN(size_t got, ReadAtMost(offset, buf, len));
  if (got != len) {
    return Status::DataLoss("short read at offset " + std::to_string(offset) +
                            " of '" + path_ + "': wanted " +
                            std::to_string(len) + " bytes, got " +
                            std::to_string(got));
  }
  return Status::OK();
}

Result<size_t> File::ReadAtMost(uint64_t offset, void* buf,
                                size_t len) const {
  if (fd_ < 0) return Status::Internal("read on closed file");
  if (fault::Enabled() && fault::Inject(fault::kSiteStorage)) {
    return InjectedFault("read");
  }
  size_t done = 0;
  char* out = static_cast<char*>(buf);
  while (done < len) {
    ssize_t n = ::pread(fd_, out + done, len - done,
                        static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("pread", path_);
    }
    if (n == 0) break;  // EOF
    done += static_cast<size_t>(n);
  }
  LYRIC_OBS_COUNT_N("storage.io.bytes_read", done);
  return done;
}

Status File::WriteAt(uint64_t offset, const void* buf, size_t len) {
  if (fd_ < 0) return Status::Internal("write on closed file");
  if (fault::Enabled() && fault::Inject(fault::kSiteStorage)) {
    return InjectedFault("write");
  }
  if (g_full_armed.load(std::memory_order_relaxed)) {
    // The crossing write fails whole — a full disk must never leave a
    // torn record behind — and the budget stays burned, so every write
    // after it keeps failing until space is "freed" (test re-arms).
    int64_t before = g_full_budget.fetch_sub(static_cast<int64_t>(len),
                                             std::memory_order_relaxed);
    if (before < static_cast<int64_t>(len)) {
      LYRIC_OBS_COUNT("storage.fault.enospc");
      return Status::ResourceExhausted(
          "no space left on device (injected ENOSPC) writing '" + path_ +
          "'");
    }
  }
  size_t done = 0;
  const char* in = static_cast<const char*>(buf);
  while (done < len) {
    ssize_t n = ::pwrite(fd_, in + done, len - done,
                         static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("pwrite", path_);
    }
    done += static_cast<size_t>(n);
  }
  LYRIC_OBS_COUNT_N("storage.io.bytes_written", len);
  return Status::OK();
}

Status File::Append(const void* buf, size_t len, bool crash_accounted) {
  if (fd_ < 0) return Status::Internal("append on closed file");
  LYRIC_ASSIGN_OR_RETURN(uint64_t size, Size());
  size_t effective = len;
  bool crash_after = false;
  if (crash_accounted) {
    if (g_crash_budget.load(std::memory_order_relaxed) >= 0) {
      // Burn the budget; when this append crosses it, write only the
      // prefix and die — the torn record the recovery scan must skip.
      int64_t before = g_crash_budget.fetch_sub(static_cast<int64_t>(len),
                                                std::memory_order_relaxed);
      if (before < static_cast<int64_t>(len)) {
        effective = before > 0 ? static_cast<size_t>(before) : 0;
        crash_after = true;
      }
    }
  }
  if (effective > 0) {
    LYRIC_RETURN_NOT_OK(WriteAt(size, buf, effective));
  }
  if (crash_after) {
    // Simulated kill -9: no destructors, no flushes beyond what the
    // kernel already has. 137 = 128 + SIGKILL, what a shell would report.
    ::_exit(137);
  }
  return Status::OK();
}

Status File::Sync() {
  if (fd_ < 0) return Status::Internal("fsync on closed file");
  LYRIC_RETURN_NOT_OK(ParkIfHeld(path_));
  if (fault::Enabled() && fault::Inject(fault::kSiteStorage)) {
    return InjectedFault("fsync");
  }
  if (::fsync(fd_) != 0) return Errno("fsync", path_);
  LYRIC_OBS_COUNT("storage.io.fsyncs");
  return Status::OK();
}

Status File::Truncate(uint64_t size) {
  if (fd_ < 0) return Status::Internal("truncate on closed file");
  if (fault::Enabled() && fault::Inject(fault::kSiteStorage)) {
    return InjectedFault("truncate");
  }
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    return Errno("ftruncate", path_);
  }
  return Status::OK();
}

Result<uint64_t> File::Size() const {
  if (fd_ < 0) return Status::Internal("size on closed file");
  off_t end = ::lseek(fd_, 0, SEEK_END);
  if (end < 0) return Errno("lseek", path_);
  return static_cast<uint64_t>(end);
}

Status File::Close() {
  if (fd_ < 0) return Status::OK();
  int fd = fd_;
  fd_ = -1;
  if (::close(fd) != 0) return Errno("close", path_);
  return Status::OK();
}

Status SyncDirectoryOf(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  if (dir.empty()) dir = "/";
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return Errno("open dir", dir);
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Errno("fsync dir", dir);
  return Status::OK();
}

Status AtomicWriteFile(const std::string& path, const std::string& contents) {
  const std::string tmp = path + ".tmp";
  {
    LYRIC_ASSIGN_OR_RETURN(File f, File::OpenReadWrite(tmp));
    // A leftover temp from an earlier interrupted attempt may be longer.
    LYRIC_RETURN_NOT_OK(f.Truncate(0));
    LYRIC_RETURN_NOT_OK(f.WriteAt(0, contents.data(), contents.size()));
    LYRIC_RETURN_NOT_OK(f.Sync());
    LYRIC_RETURN_NOT_OK(f.Close());
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    Status st = Errno("rename", tmp);
    ::unlink(tmp.c_str());
    return st;
  }
  return SyncDirectoryOf(path);
}

}  // namespace storage
}  // namespace lyric
