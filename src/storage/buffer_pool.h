// BufferPool: an LRU page cache with pin/unpin between the B-tree and
// the pager, built on the ranked sync layer (rank kBufferPool, see
// docs/CONCURRENCY.md).
//
// Frames carry the state that implements the engine's no-steal
// redo-only crash protocol (docs/STORAGE.md):
//
//   dirty     the frame differs from the data file; checkpoint flushes
//             it (or eviction does, once its image is durable).
//   unlogged  the frame holds mutations not yet in the WAL. A commit
//             appends the unlogged frames' images and clears the flag
//             (MarkLogged), recording the commit's LSN on each frame.
//   lsn       the commit that logged the frame's current image. The
//             write-ahead rule, by LSN (ARIES' pageLSN <= flushedLSN):
//             a dirty frame reaches the data file only once its lsn is
//             at or below the store's durable LSN, so an unlogged frame,
//             or one whose commit is appended but not yet fsynced, is
//             never written or evicted. If the process dies, the data
//             file holds only durably committed bytes and recovery
//             replays the WAL on top (the full image in the WAL repairs
//             any torn write).
//
// Eviction picks the least-recently-used unpinned frame that may be
// written; if none may, the pool temporarily exceeds its capacity
// (counted in storage.pool.overflows) rather than fail — a page fetch
// must not error because a large transaction is in flight. The overflow
// drains once frames may be written again: a fetch that hits while the
// pool is over capacity evicts back to it, and so does FlushDirty.
//
// Pins are handed out as RAII PageRefs. The pool lock guards only the
// frame table and LRU bookkeeping; the page bytes themselves are
// accessed while pinned under the single-writer engine lock (rank
// kStorageEngine), which PagedStore holds across every structural
// operation.

#ifndef LYRIC_STORAGE_BUFFER_POOL_H_
#define LYRIC_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "storage/pager.h"
#include "util/sync.h"

namespace lyric {
namespace storage {

class BufferPool;

/// A pinned page. The frame cannot be evicted while any PageRef to it
/// lives; destruction unpins. Move-only.
class PageRef {
 public:
  PageRef() = default;
  ~PageRef();
  PageRef(PageRef&& other) noexcept;
  PageRef& operator=(PageRef&& other) noexcept;
  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;

  bool valid() const { return pool_ != nullptr; }
  PageId id() const { return id_; }
  /// The cached page image. Callers mutate it only under the engine
  /// lock and call MarkDirty() afterwards.
  PageBuf& buf() { return *buf_; }
  const PageBuf& buf() const { return *buf_; }
  /// Flags the frame dirty + unlogged (it now differs from both the
  /// data file and the WAL).
  void MarkDirty();
  /// Releases the pin early.
  void Reset();

 private:
  friend class BufferPool;
  PageRef(BufferPool* pool, PageId id, PageBuf* buf)
      : pool_(pool), id_(id), buf_(buf) {}

  BufferPool* pool_ = nullptr;
  PageId id_ = kInvalidPage;
  PageBuf* buf_ = nullptr;
};

class BufferPool {
 public:
  /// `capacity` is the soft frame cap (pages kept cached). `durable_lsn`
  /// is the owner's durable-LSN watermark, read for the write-ahead rule;
  /// it must outlive the pool.
  BufferPool(Pager* pager, size_t capacity,
             const std::atomic<uint64_t>* durable_lsn);

  /// Pins page `id`, reading (and checksum-verifying) it from the data
  /// file on a miss.
  Result<PageRef> Fetch(PageId id) LYRIC_EXCLUDES(mu_);

  /// Pins a fresh zeroed frame for newly allocated page `id` (no disk
  /// read); the frame starts dirty + unlogged.
  Result<PageRef> CreateZeroed(PageId id, PageType type) LYRIC_EXCLUDES(mu_);

  /// Sealed copies of every unlogged frame, ascending by page id —
  /// exactly the images a commit appends to the WAL.
  std::vector<std::pair<PageId, PageBuf>> SnapshotUnlogged()
      LYRIC_EXCLUDES(mu_);
  /// How many frames SnapshotUnlogged would return, without sealing or
  /// copying them.
  size_t UnloggedCount() LYRIC_EXCLUDES(mu_);

  /// Clears the unlogged flag on `ids`, whose images the commit with LSN
  /// `lsn` appended to the WAL; eviction may write them once `lsn` is
  /// durable.
  void MarkLogged(const std::vector<std::pair<PageId, PageBuf>>& ids,
                  uint64_t lsn) LYRIC_EXCLUDES(mu_);

  /// Writes every dirty frame to the data file (no fsync — the caller
  /// owns the checkpoint fsync ordering), then evicts unpinned frames
  /// down to capacity. Fails if any dirty frame is unlogged or logged by
  /// a commit that is not yet durable: flushing it would break the
  /// write-ahead rule.
  Status FlushDirty() LYRIC_EXCLUDES(mu_);

  /// True when any frame holds unlogged mutations.
  bool HasUnlogged() LYRIC_EXCLUDES(mu_);

 private:
  friend class PageRef;

  struct Frame {
    PageId id = kInvalidPage;
    PageBuf buf;
    bool dirty = false;
    bool unlogged = false;
    uint64_t lsn = 0;
    int pins = 0;
    uint64_t last_used = 0;
  };

  void Unpin(PageId id) LYRIC_EXCLUDES(mu_);
  /// The write-ahead rule: `frame` may reach the data file — it is clean,
  /// or its image is logged by a durable commit.
  bool WritableLocked(const Frame& frame) const LYRIC_REQUIRES(mu_);
  /// Evicts LRU unpinned writable frames until the pool holds at most
  /// `limit` frames (or none is evictable); dirty evictees are written
  /// back (not fsynced) first.
  Status EvictToLocked(size_t limit) LYRIC_REQUIRES(mu_);

  Pager* pager_;
  const size_t capacity_;
  const std::atomic<uint64_t>* durable_lsn_;
  mutable sync::Mutex mu_{sync::LockRank::kBufferPool, "buffer_pool"};
  std::map<PageId, std::unique_ptr<Frame>> frames_ LYRIC_GUARDED_BY(mu_);
  uint64_t use_tick_ LYRIC_GUARDED_BY(mu_) = 0;
  /// Set when an eviction scan found no victim, at durable LSN
  /// stuck_at_lsn_. Until a frame is unpinned while writable, flushed,
  /// or the LSN moves, EvictToLocked returns at once (a hit waits for
  /// the LSN alone): a long unlogged transaction does not rescan the
  /// frame table on every fetch.
  bool stuck_ LYRIC_GUARDED_BY(mu_) = false;
  uint64_t stuck_at_lsn_ LYRIC_GUARDED_BY(mu_) = 0;
};

}  // namespace storage
}  // namespace lyric

#endif  // LYRIC_STORAGE_BUFFER_POOL_H_
