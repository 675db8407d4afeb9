#include "storage/buffer_pool.h"

#include "obs/metrics.h"

namespace lyric {
namespace storage {

PageRef::~PageRef() { Reset(); }

PageRef::PageRef(PageRef&& other) noexcept
    : pool_(other.pool_), id_(other.id_), buf_(other.buf_) {
  other.pool_ = nullptr;
  other.buf_ = nullptr;
}

PageRef& PageRef::operator=(PageRef&& other) noexcept {
  if (this != &other) {
    Reset();
    pool_ = other.pool_;
    id_ = other.id_;
    buf_ = other.buf_;
    other.pool_ = nullptr;
    other.buf_ = nullptr;
  }
  return *this;
}

void PageRef::MarkDirty() {
  if (pool_ == nullptr) return;
  sync::MutexLock lock(pool_->mu_);
  auto it = pool_->frames_.find(id_);
  if (it != pool_->frames_.end()) {
    it->second->dirty = true;
    it->second->unlogged = true;
  }
}

void PageRef::Reset() {
  if (pool_ != nullptr) pool_->Unpin(id_);
  pool_ = nullptr;
  buf_ = nullptr;
}

BufferPool::BufferPool(Pager* pager, size_t capacity,
                       const std::atomic<uint64_t>* durable_lsn)
    : pager_(pager),
      capacity_(capacity == 0 ? 1 : capacity),
      durable_lsn_(durable_lsn) {}

bool BufferPool::WritableLocked(const Frame& frame) const {
  if (!frame.dirty) return true;
  return !frame.unlogged && frame.lsn <= durable_lsn_->load();
}

Result<PageRef> BufferPool::Fetch(PageId id) {
  // Metric handles resolve before mu_ (registry ranks above the pool,
  // but keeping resolution outside the lock avoids first-call nesting).
  static obs::Counter& hits =
      obs::Registry::Global().GetCounter("storage.pool.hits");
  static obs::Counter& misses =
      obs::Registry::Global().GetCounter("storage.pool.misses");
  static obs::Gauge& pages =
      obs::Registry::Global().GetGauge("storage.pool.pages");
  {
    sync::MutexLock lock(mu_);
    auto it = frames_.find(id);
    if (it != frames_.end()) {
      Frame& frame = *it->second;
      ++frame.pins;
      frame.last_used = ++use_tick_;
      hits.Increment();
      return PageRef(this, id, &frame.buf);
    }
  }
  misses.Increment();
  // Read outside the pool lock: page I/O must not serialize unrelated
  // fetches. A racing fetch of the same page is resolved below (the
  // second read is discarded) — and cannot happen today anyway, since
  // callers hold the engine lock.
  PageBuf buf;
  LYRIC_RETURN_NOT_OK(pager_->ReadPage(id, &buf));
  sync::MutexLock lock(mu_);
  auto it = frames_.find(id);
  if (it == frames_.end()) {
    LYRIC_RETURN_NOT_OK(EvictIfNeededLocked());
    auto frame = std::make_unique<Frame>();
    frame->id = id;
    frame->buf = buf;
    it = frames_.emplace(id, std::move(frame)).first;
    pages.Set(static_cast<int64_t>(frames_.size()));
  }
  Frame& frame = *it->second;
  ++frame.pins;
  frame.last_used = ++use_tick_;
  return PageRef(this, id, &frame.buf);
}

Result<PageRef> BufferPool::CreateZeroed(PageId id, PageType type) {
  static obs::Gauge& pages =
      obs::Registry::Global().GetGauge("storage.pool.pages");
  sync::MutexLock lock(mu_);
  LYRIC_RETURN_NOT_OK(EvictIfNeededLocked());
  auto frame = std::make_unique<Frame>();
  frame->id = id;
  InitPage(frame->buf, type);
  frame->dirty = true;
  frame->unlogged = true;
  frame->pins = 1;
  frame->last_used = ++use_tick_;
  Frame& ref = *frame;
  frames_[id] = std::move(frame);  // replaces any stale frame (freed page reuse)
  pages.Set(static_cast<int64_t>(frames_.size()));
  return PageRef(this, id, &ref.buf);
}

std::vector<std::pair<PageId, PageBuf>> BufferPool::SnapshotUnlogged() {
  sync::MutexLock lock(mu_);
  std::vector<std::pair<PageId, PageBuf>> out;
  for (auto& [id, frame] : frames_) {
    if (!frame->unlogged) continue;
    SealPage(frame->buf);
    out.emplace_back(id, frame->buf);
  }
  return out;
}

size_t BufferPool::UnloggedCount() {
  sync::MutexLock lock(mu_);
  size_t n = 0;
  for (const auto& [id, frame] : frames_) {
    if (frame->unlogged) ++n;
  }
  return n;
}

void BufferPool::MarkLogged(
    const std::vector<std::pair<PageId, PageBuf>>& ids, uint64_t lsn) {
  sync::MutexLock lock(mu_);
  for (const auto& [id, image] : ids) {
    auto it = frames_.find(id);
    if (it == frames_.end()) continue;
    it->second->unlogged = false;
    it->second->lsn = lsn;
  }
}

Status BufferPool::FlushDirty() {
  static obs::Gauge& dirty_gauge =
      obs::Registry::Global().GetGauge("storage.pool.dirty");
  // Collect under the lock, write outside it (page writes may be slow
  // and must not block pins). Single-writer discipline (the engine
  // lock) means nobody mutates the frames while we flush.
  std::vector<Frame*> dirty;
  {
    sync::MutexLock lock(mu_);
    for (auto& [id, frame] : frames_) {
      if (!WritableLocked(*frame)) {
        return Status::Internal(
            "FlushDirty with page " + std::to_string(id) +
            " not durably logged — write-ahead rule violation (the log "
            "must be durable first)");
      }
      if (frame->dirty) dirty.push_back(frame.get());
    }
  }
  for (Frame* frame : dirty) {
    LYRIC_RETURN_NOT_OK(pager_->WritePage(frame->id, frame->buf));
  }
  sync::MutexLock lock(mu_);
  for (Frame* frame : dirty) frame->dirty = false;
  int64_t remaining = 0;
  for (auto& [id, frame] : frames_) remaining += frame->dirty ? 1 : 0;
  dirty_gauge.Set(remaining);
  return Status::OK();
}

void BufferPool::DropAllForTesting() {
  sync::MutexLock lock(mu_);
  for (auto it = frames_.begin(); it != frames_.end();) {
    if (it->second->pins == 0) {
      it = frames_.erase(it);
    } else {
      ++it;
    }
  }
}

bool BufferPool::HasUnlogged() {
  sync::MutexLock lock(mu_);
  for (auto& [id, frame] : frames_) {
    if (frame->unlogged) return true;
  }
  return false;
}

size_t BufferPool::FrameCount() {
  sync::MutexLock lock(mu_);
  return frames_.size();
}

void BufferPool::Unpin(PageId id) {
  sync::MutexLock lock(mu_);
  auto it = frames_.find(id);
  if (it != frames_.end() && it->second->pins > 0) --it->second->pins;
}

Status BufferPool::EvictIfNeededLocked() {
  static obs::Counter& evictions =
      obs::Registry::Global().GetCounter("storage.pool.evictions");
  static obs::Counter& overflows =
      obs::Registry::Global().GetCounter("storage.pool.overflows");
  while (frames_.size() >= capacity_) {
    Frame* victim = nullptr;
    for (auto& [id, frame] : frames_) {
      if (frame->pins > 0 || !WritableLocked(*frame)) continue;
      if (victim == nullptr || frame->last_used < victim->last_used) {
        victim = frame.get();
      }
    }
    if (victim == nullptr) {
      // Everything pinned or not yet durable: let the pool grow past
      // capacity instead of failing the fetch; the commit's fsync or a
      // checkpoint will drain it.
      overflows.Increment();
      return Status::OK();
    }
    if (victim->dirty) {
      // Durably logged + dirty: safe to write back (its WAL image repairs
      // any torn write), no fsync needed here.
      LYRIC_RETURN_NOT_OK(pager_->WritePage(victim->id, victim->buf));
    }
    evictions.Increment();
    frames_.erase(victim->id);
  }
  return Status::OK();
}

}  // namespace storage
}  // namespace lyric
