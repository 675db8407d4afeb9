// Write-ahead log: redo-only, full-page images, group commit.
//
// File layout (docs/STORAGE.md):
//
//   header (24 bytes): magic "LYRCWAL\n" (u64) | base LSN (u64) |
//                      crc32c of the first 16 bytes (u32) | zero (u32)
//   records:           crc (u32) | payload length (u32) | lsn (u64) |
//                      type (u8) | zero[3] | payload
//
// The record crc covers everything after itself (length, lsn, type,
// padding, payload), so a torn append — the tail a kill -9 leaves — is
// detected at the first record whose bytes do not add up. Two record
// types exist: kPageImage (u64 page id + the sealed 4 KiB image) and
// kCommit (u64 image count). A transaction is the run of page images
// since the previous commit record plus its own commit record; replay
// applies a transaction's images only when its commit record is intact,
// so recovery lands exactly on the last durable commit.
//
// Durability: Append only buffers into the OS file; a commit is not
// durable until SyncTo(lsn) returns. SyncTo implements group commit
// (leader/follower): the first waiter becomes the leader, releases the
// lock, fsyncs once, and wakes everyone whose records the sync covered —
// concurrent waiters share one fsync (counted in
// storage.wal.group_commit_riders). PagedStore::WaitDurable calls it
// without the engine lock, so the waiters are a committing writer and
// the server's reads that saw its commit. A failed fsync poisons the log
// (sticky error): the kernel may have dropped dirty pages and "retry"
// would report durability that does not exist (the PostgreSQL fsyncgate
// lesson); the owning store reopens instead.

#ifndef LYRIC_STORAGE_WAL_H_
#define LYRIC_STORAGE_WAL_H_

#include <functional>
#include <string>

#include "storage/file_io.h"
#include "storage/page.h"
#include "util/sync.h"

namespace lyric {
namespace storage {

class Wal {
 public:
  /// Opens (creating/initializing if absent or empty) the log at `path`.
  static Result<std::unique_ptr<Wal>> Open(const std::string& path);

  /// Appends a page-image record; the image must already be sealed.
  /// Returns the record's LSN. Not durable until SyncTo.
  Result<uint64_t> AppendPageImage(PageId id, const PageBuf& image)
      LYRIC_EXCLUDES(mu_);

  /// Appends a commit record covering the preceding `image_count` page
  /// images. Returns its LSN.
  Result<uint64_t> AppendCommit(uint64_t image_count) LYRIC_EXCLUDES(mu_);

  /// Blocks until every record up to `lsn` is fsynced (group commit).
  Status SyncTo(uint64_t lsn) LYRIC_EXCLUDES(mu_);

  /// Empties the log after a checkpoint: rewrites the header with
  /// `next_lsn` as the new base and truncates everything else, fsynced.
  Status Reset(uint64_t next_lsn) LYRIC_EXCLUDES(mu_);

  Result<uint64_t> SizeBytes() LYRIC_EXCLUDES(mu_);
  /// LSN the next record will get.
  uint64_t NextLsn() LYRIC_EXCLUDES(mu_);

  /// What a replay scan found.
  struct ReplayStats {
    uint64_t committed_txns = 0;     // commits applied
    uint64_t images_applied = 0;     // page images written back
    uint64_t last_commit_lsn = 0;    // 0 when none
    uint64_t next_lsn = 1;           // base for the post-recovery log
    uint64_t valid_bytes = 0;        // prefix that parsed clean
    uint64_t torn_tail_bytes = 0;    // ignored tail after the last
                                     // intact commit (torn crash debris)
  };

  /// Scans the log at `path` and calls `apply(page, image)` for every
  /// page image of every committed transaction, in commit order (later
  /// commits overwrite earlier images of the same page). A missing file
  /// is an empty log. A corrupt header is kDataLoss; a corrupt or torn
  /// record merely ends the scan — that is the expected kill -9 tail.
  static Result<ReplayStats> Replay(
      const std::string& path,
      const std::function<Status(PageId, const PageBuf&)>& apply);

  // Layout constants (tests and the fuzz harness build files by hand).
  static constexpr size_t kHeaderSize = 24;
  static constexpr size_t kRecordHeaderSize = 20;

 private:
  enum RecordType : uint8_t { kPageImage = 1, kCommit = 2 };

  Wal() = default;

  Status AppendRecordLocked(RecordType type, const uint8_t* payload,
                            size_t len, uint64_t* lsn_out)
      LYRIC_REQUIRES(mu_);

  sync::Mutex mu_{sync::LockRank::kWal, "wal"};
  File file_ LYRIC_GUARDED_BY(mu_);
  uint64_t next_lsn_ LYRIC_GUARDED_BY(mu_) = 1;
  uint64_t appended_lsn_ LYRIC_GUARDED_BY(mu_) = 0;
  uint64_t synced_lsn_ LYRIC_GUARDED_BY(mu_) = 0;
  bool sync_in_flight_ LYRIC_GUARDED_BY(mu_) = false;
  /// Sticky: set on the first fsync/append failure, returned ever after.
  Status sticky_error_ LYRIC_GUARDED_BY(mu_);
  sync::CondVar sync_done_;
};

}  // namespace storage
}  // namespace lyric

#endif  // LYRIC_STORAGE_WAL_H_
