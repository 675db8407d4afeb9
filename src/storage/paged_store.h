// PagedStore: the durable, crash-safe storage engine behind the CST
// store (docs/STORAGE.md).
//
// One data file of checksummed 4 KiB pages (page.h) plus a write-ahead
// log at `<path>-wal` (wal.h). A B-tree (btree.h) over an LRU buffer
// pool (buffer_pool.h) indexes dump-grammar text fragments by
// structured keys:
//
//   "C\x1f<seq>"              class definition block, registration order
//   "O\x1f<oid>"              object -> class name
//   "A\x1f<oid>\x1f<attr>"    attribute value text (serializer grammar)
//   "I\x1f<seq>"              extra INSTANCEOF line, insertion order
//
// so ExportToDatabase can reassemble a Serializer dump verbatim and
// reuse Serializer::LoadDatabase — recovery therefore answers the paper
// query suite byte-identically to the last committed state. A record
// keeps the key it was first written under: new classes and facts take
// the numbers after the store's highest 'C' and 'I' keys, so a write
// touches only the records it adds (ApplyChanges).
//
// Crash protocol (no-steal, redo-only):
//   * Mutations live in buffer-pool frames flagged `unlogged`; such
//     frames are never written to the data file.
//   * A commit is two steps. The append (ApplyChanges, or the first half
//     of Commit) seals every unlogged frame, appends the images plus a
//     commit record to the WAL, clears the flags and stamps each frame
//     with the commit's LSN. WaitDurable(lsn) then fsyncs through the
//     WAL's group commit, outside the engine lock, and advances
//     durable_lsn(). A frame reaches the data file only once its LSN is
//     durable (the write-ahead rule, by LSN). A kill -9 at any byte
//     leaves either a replayable committed transaction or an ignorable
//     torn tail.
//   * Checkpoint commits, makes the log durable, writes dirty pages to
//     the data file, fsyncs it, and truncates the WAL. LSNs keep
//     growing across the truncation.
//   * Open replays the WAL (committed transactions only), fsyncs, and
//     truncates it — deterministic redo recovery.
//
// Failure discipline: a failed mutation, append or fsync POISONS the
// store (fail-stop; every later call returns the first error) because
// half-applied unlogged frames cannot be rolled back in place — the
// durable state is untouched, and reopening recovers it. A failed fsync
// stays failed (the fsyncgate rule: retrying it would report durability
// that does not exist). Validation errors (bad key, missing record) do
// not poison.
//
// Locking: one engine mutex (rank kStorageEngine) serializes every
// operation but the commit fsync; it ranks before the WAL (kWal) and
// pool (kBufferPool) locks taken underneath, and before kCstStore so
// import/export may intern CSTs (docs/CONCURRENCY.md).

#ifndef LYRIC_STORAGE_PAGED_STORE_H_
#define LYRIC_STORAGE_PAGED_STORE_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "object/database.h"
#include "storage/btree.h"
#include "storage/wal.h"
#include "util/sync.h"

namespace lyric {
namespace storage {

struct StoreOptions {
  /// Data file path; the WAL lives at WalPathFor(path).
  std::string path;
  /// Buffer-pool capacity in pages (soft cap).
  size_t pool_pages = 256;
  /// When false, a commit counts as durable once appended, with no WAL
  /// fsync — benchmarks only; a crash may then lose the tail of
  /// acknowledged commits.
  bool sync_commits = true;
};

/// What Open's WAL replay found (exported via storage.recovery.*).
struct RecoveryInfo {
  uint64_t committed_txns = 0;
  uint64_t images_applied = 0;
  uint64_t torn_tail_bytes = 0;
};

class PagedStore : private PageAllocator {
 public:
  /// Opens (creating if absent) the store at opts.path, running redo
  /// recovery first. kDataLoss when the file is not a lyric store or is
  /// corrupt beyond the recoverable torn tail.
  static Result<std::unique_ptr<PagedStore>> Open(const StoreOptions& opts);

  ~PagedStore() override;

  // -- key/value records (buffered until Commit) ---------------------------
  Status Put(std::string_view key, std::string_view value)
      LYRIC_EXCLUDES(mu_);
  /// kNotFound when absent.
  Result<std::string> Get(std::string_view key) LYRIC_EXCLUDES(mu_);
  /// OK whether or not the key existed.
  Status Delete(std::string_view key) LYRIC_EXCLUDES(mu_);
  /// In-order scan from the first key >= `lower`; callback returns false
  /// to stop.
  Status Scan(std::string_view lower,
              const std::function<Result<bool>(std::string_view,
                                               std::string_view)>& fn)
      LYRIC_EXCLUDES(mu_);

  /// Makes every buffered mutation durable: appends it to the WAL, then
  /// WaitDurable. No-op when nothing changed.
  Status Commit() LYRIC_EXCLUDES(mu_);
  /// Blocks until the commit with LSN `lsn` is durable, fsyncing through
  /// the WAL's group commit without the engine lock, so the next commit
  /// may append meanwhile. OK at once when `lsn` is 0 or already durable.
  /// A failed fsync poisons the store and every waiter gets its error;
  /// on a poisoned store a not-yet-durable `lsn` fails at once.
  Status WaitDurable(uint64_t lsn) LYRIC_EXCLUDES(mu_);
  /// The highest commit LSN known durable. Lock-free.
  uint64_t durable_lsn() const { return durable_lsn_.load(); }
  /// Commit + flush dirty pages to the data file + fsync + truncate the
  /// WAL.
  Status Checkpoint() LYRIC_EXCLUDES(mu_);
  /// Checkpoints (best-effort when poisoned) and closes both files.
  Status Close() LYRIC_EXCLUDES(mu_);

  // -- Serializer bridge ---------------------------------------------------
  /// Writes `db` (schema, objects, CST attribute values, instance-of
  /// facts) into an EMPTY store, commits, and empties `db`'s change set:
  /// the store now holds all of it.
  Status ImportDatabase(Database& db) LYRIC_EXCLUDES(mu_);
  /// Reassembles the stored records into a Serializer dump and loads it
  /// into the (empty) `db`, leaving its change set empty.
  Status ExportToDatabase(Database* db) LYRIC_EXCLUDES(mu_);
  /// Writes exactly the records `changes` touched, rendered from `db` as
  /// it stands now, and appends them to the WAL as one commit, without
  /// fsyncing — the write-through path for a live server: after a schema
  /// mutation installs, ApplyChanges appends it, and WaitDurable on the
  /// returned LSN makes it durable before the client is acknowledged.
  /// `changes` must be everything `db` changed since the store last
  /// matched it (Database::TakeChanges), so that afterwards the store
  /// holds exactly `db`. Returns the commit's LSN, or 0 when nothing
  /// changed. Any failure poisons the store fail-stop; the durable state
  /// stays the previous committed prefix.
  Result<uint64_t> ApplyChanges(const Database& db, const ChangeSet& changes)
      LYRIC_EXCLUDES(mu_);

  uint64_t RecordCount() LYRIC_EXCLUDES(mu_);
  /// True when uncommitted mutations are buffered.
  bool HasUncommitted() LYRIC_EXCLUDES(mu_);
  /// The first poisoning error — OK while the store is healthy. Lets a
  /// server distinguish "degrade to read-only" from "keep serving".
  Status poison_status() LYRIC_EXCLUDES(mu_);
  const RecoveryInfo& recovery() const { return recovery_; }
  const std::string& path() const { return opts_.path; }

  static std::string WalPathFor(const std::string& data_path) {
    return data_path + "-wal";
  }

 private:
  explicit PagedStore(StoreOptions opts) : opts_(std::move(opts)) {}

  // PageAllocator (called by the B-tree under the engine lock).
  Result<PageRef> Allocate(PageType type) override;
  Status Free(PageId id) override;

  Status PutLocked(std::string_view key, std::string_view value)
      LYRIC_REQUIRES(mu_);
  Status DeleteLocked(std::string_view key) LYRIC_REQUIRES(mu_);
  /// Appends every unlogged frame plus a commit record to the WAL (no
  /// fsync) and returns the commit's LSN, or 0 when nothing changed.
  Result<uint64_t> AppendCommitLocked() LYRIC_REQUIRES(mu_);
  /// Raises durable_lsn_ to `lsn` (never lowers it).
  void AdvanceDurable(uint64_t lsn);
  Status CheckpointLocked() LYRIC_REQUIRES(mu_);
  Status ApplyChangeLocked(const Database& db, const Change& change)
      LYRIC_REQUIRES(mu_);
  /// Deletes `oid`'s object, attribute and instance-of records.
  Status DeleteObjectRecordsLocked(const Database& db, const Oid& oid)
      LYRIC_REQUIRES(mu_);
  /// The next unused sequence key of the 'C' or 'I' range.
  Result<std::string> NextSeqKeyLocked(char prefix) LYRIC_REQUIRES(mu_);
  /// Poisons the store on non-validation errors and returns `st`.
  Status MaybePoison(Status st) LYRIC_REQUIRES(mu_);
  /// Poisons the store (first error wins) and returns `st`.
  Status Poison(Status st) LYRIC_REQUIRES(mu_);

  const StoreOptions opts_;
  RecoveryInfo recovery_;
  /// Every commit at or below this LSN is durable. Advanced by
  /// WaitDurable and Checkpoint (and by each append when sync_commits is
  /// off); the buffer pool reads it for the write-ahead rule.
  std::atomic<uint64_t> durable_lsn_{0};
  sync::Mutex mu_{sync::LockRank::kStorageEngine, "paged_store"};
  std::unique_ptr<Pager> pager_ LYRIC_GUARDED_BY(mu_);
  std::unique_ptr<BufferPool> pool_ LYRIC_GUARDED_BY(mu_);
  std::unique_ptr<Wal> wal_ LYRIC_GUARDED_BY(mu_);
  std::unique_ptr<BTree> tree_ LYRIC_GUARDED_BY(mu_);
  MetaPage meta_ LYRIC_GUARDED_BY(mu_);
  Status poisoned_ LYRIC_GUARDED_BY(mu_);
  bool closed_ LYRIC_GUARDED_BY(mu_) = false;
  // Next free sequence number per key range ('C', 'I'). Derived from the
  // highest stored key on first use; a raw Put/Delete or an import
  // forgets it.
  std::map<char, uint64_t> next_seq_ LYRIC_GUARDED_BY(mu_);
};

}  // namespace storage
}  // namespace lyric

#endif  // LYRIC_STORAGE_PAGED_STORE_H_
