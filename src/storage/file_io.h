// Low-level durable file I/O for the paged storage engine.
//
// Every syscall the engine depends on for crash safety funnels through
// this translation unit: positional reads/writes, appends, fsync, atomic
// whole-file replacement, and directory sync. Five concerns live here so
// the rest of the engine stays pure logic:
//
//  1. Typed errors. Failures come back as Status (kUnavailable for
//     injected/transient conditions, kInternal for real syscall errors,
//     kNotFound for missing files) — never exceptions, never aborts.
//  2. Fault injection. Each operation consults fault::kSiteStorage, so
//     LYRIC_FAULT=storage:<p> makes writes/fsyncs/reads fail on demand
//     and the fault-gate tests can prove the engine degrades cleanly.
//  3. Deterministic crash points. LYRIC_STORAGE_CRASH_AT=<n> terminates
//     the process (_exit, simulating kill -9) the moment the n-th byte
//     would be appended to a WAL: the prefix up to n is written, the rest
//     never happens. The crash-matrix recovery test sweeps n across a
//     whole log to prove every torn commit recovers to the last durable
//     state.
//  4. Deterministic disk exhaustion. LYRIC_STORAGE_FULL_AT=<n> makes the
//     disk "fill up" after n bytes of writes: the write that would cross
//     the budget fails whole (nothing torn) with typed
//     kResourceExhausted, and every later write keeps failing — exactly
//     how a full filesystem behaves until space is freed. The ENOSPC
//     fault-gate tests prove a full disk surfaces as a typed error
//     through the server, never an abort.
//  5. A held fsync. HoldSyncsForTesting parks File::Sync until the test
//     releases it, with success or a chosen error, so a test can observe
//     a commit that is appended but not yet durable.

#ifndef LYRIC_STORAGE_FILE_IO_H_
#define LYRIC_STORAGE_FILE_IO_H_

#include <cstdint>
#include <string>

#include "util/result.h"
#include "util/status.h"

namespace lyric {
namespace storage {

/// A move-only owned file descriptor. Close errors on destruction are
/// swallowed (use Close() when the error matters, e.g. after writes).
class File {
 public:
  File() = default;
  ~File();
  File(File&& other) noexcept;
  File& operator=(File&& other) noexcept;
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  /// Opens (creating if needed) a read/write file.
  static Result<File> OpenReadWrite(const std::string& path);
  /// Opens an existing file read-only (kNotFound when absent).
  static Result<File> OpenReadOnly(const std::string& path);

  bool valid() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  /// Reads exactly `len` bytes at `offset` into `buf`. Short reads (EOF
  /// inside the range) are kDataLoss: the caller asked for bytes the
  /// file was supposed to have.
  Status ReadAt(uint64_t offset, void* buf, size_t len) const;
  /// Reads up to `len` bytes at `offset`; returns the count actually
  /// read (0 at EOF).
  Result<size_t> ReadAtMost(uint64_t offset, void* buf, size_t len) const;
  /// Writes exactly `len` bytes at `offset`.
  Status WriteAt(uint64_t offset, const void* buf, size_t len);
  /// Appends exactly `len` bytes at the current end; `crash_accounted`
  /// routes the bytes through the LYRIC_STORAGE_CRASH_AT counter (WAL
  /// appends only — the crash matrix is defined over WAL offsets).
  Status Append(const void* buf, size_t len, bool crash_accounted = false);
  /// Flushes file content and metadata to stable storage.
  Status Sync();
  /// Truncates (or extends with zeros) to `size` bytes.
  Status Truncate(uint64_t size);
  Result<uint64_t> Size() const;
  /// Closes, reporting the close() error (idempotent).
  Status Close();

 private:
  int fd_ = -1;
  std::string path_;
};

/// Crash-safe whole-file replacement: writes `contents` to `path.tmp` in
/// the same directory, fsyncs it, renames over `path`, and fsyncs the
/// directory — an interrupted call never clobbers an existing good file.
Status AtomicWriteFile(const std::string& path, const std::string& contents);

/// Fsyncs the directory containing `path` so a rename/create within it
/// is durable.
Status SyncDirectoryOf(const std::string& path);

/// The LYRIC_STORAGE_CRASH_AT byte budget remaining, or a negative value
/// when no crash point is armed. Exposed for tests.
int64_t CrashBudgetRemainingForTesting();

/// Arms (or, with a negative value, disarms) the crash budget directly,
/// bypassing the once-per-process LYRIC_STORAGE_CRASH_AT parse. The
/// crash-matrix test forks workers after the parent has already touched
/// storage I/O; the fork inherits the parsed-and-disarmed state, so the
/// child re-arms through this hook. Tests only.
void ArmCrashBudgetForTesting(int64_t budget);

/// The LYRIC_STORAGE_FULL_AT byte budget remaining, or a negative value
/// when no disk-full point is armed. Exposed for tests.
int64_t DiskFullBudgetRemainingForTesting();

/// Arms (or, with a negative value, disarms) the injected-ENOSPC budget
/// directly, bypassing the once-per-process LYRIC_STORAGE_FULL_AT parse.
/// Once the budget is crossed, writes fail sticky with typed
/// kResourceExhausted until re-armed/disarmed. Tests only.
void ArmDiskFullForTesting(int64_t budget);

/// Parks every File::Sync at its start until ReleaseSyncsForTesting, so
/// a test can hold a commit between its WAL append and its fsync. Tests
/// only.
void HoldSyncsForTesting();

/// Blocks until a File::Sync is parked by HoldSyncsForTesting, or
/// `timeout_ms` passes. Returns the parked file's path, "" on timeout.
std::string WaitForHeldSyncForTesting(uint64_t timeout_ms);

/// Disarms the hold and lets the parked syncs go on; with a non-OK
/// `outcome`, each of them fails with it instead of syncing. Tests only.
void ReleaseSyncsForTesting(const Status& outcome = Status::OK());

}  // namespace storage
}  // namespace lyric

#endif  // LYRIC_STORAGE_FILE_IO_H_
