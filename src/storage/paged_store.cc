#include "storage/paged_store.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "storage/serializer.h"

namespace lyric {
namespace storage {

namespace {

/// Sequence-numbered record key ("C\x1f00000007") — zero-padded so key
/// order is insertion order.
std::string SeqKey(char prefix, uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%c\x1f%08llu", prefix,
                static_cast<unsigned long long>(seq));
  return buf;
}

/// Object and attribute keys name the oid in the dump grammar, since
/// ExportToDatabase copies that text into the dump it loads.
std::string ObjectKey(const Oid& oid) {
  return std::string("O\x1f") + Serializer::OidText(oid);
}

std::string AttributeKey(const Oid& oid, const std::string& attr) {
  return "A\x1f" + Serializer::OidText(oid) + "\x1f" + attr;
}

/// Renders `db` as the full record map the store should hold, for
/// ImportDatabase. Instance-of facts are numbered in (oid, class) order,
/// which is each oid's insertion order.
Status BuildRecords(const Database& db,
                    std::map<std::string, std::string>* out) {
  uint64_t seq = 0;
  for (const std::string& name : db.schema().ClassNames()) {
    LYRIC_ASSIGN_OR_RETURN(const ClassDef* def, db.schema().GetClass(name));
    LYRIC_ASSIGN_OR_RETURN(std::string text, Serializer::ClassText(*def));
    (*out)[SeqKey('C', seq++)] = std::move(text);
  }
  for (const auto& [oid, rec] : db.objects()) {
    (*out)[ObjectKey(oid)] = Serializer::ClassNameText(rec.class_name);
    for (const auto& [attr, value] : rec.attrs) {
      LYRIC_ASSIGN_OR_RETURN(std::string vt, Serializer::ValueText(db, value));
      (*out)[AttributeKey(oid, attr)] = std::move(vt);
    }
  }
  seq = 0;
  for (const auto& [oid, classes] : db.extra_instance_of()) {
    for (const std::string& cls : classes) {
      LYRIC_ASSIGN_OR_RETURN(std::string line,
                             Serializer::InstanceOfLine(db, oid, cls));
      (*out)[SeqKey('I', seq++)] = std::move(line);
    }
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<PagedStore>> PagedStore::Open(
    const StoreOptions& opts) {
  static obs::Histogram& recovery_ns =
      obs::Registry::Global().GetHistogram("storage.recovery_ns");
  auto store = std::unique_ptr<PagedStore>(new PagedStore(opts));
  sync::MutexLock lock(store->mu_);
  LYRIC_ASSIGN_OR_RETURN(Pager pager, Pager::Open(opts.path));
  LYRIC_ASSIGN_OR_RETURN(uint64_t on_disk, pager.PageCountOnDisk());
  if (on_disk == 0) {
    // Brand-new store: page 0 gets a fresh meta page, durably, before
    // anything else can reference it.
    MetaPage fresh;
    PageBuf page;
    fresh.EncodeTo(page);
    LYRIC_RETURN_NOT_OK(pager.WritePage(0, page));
    LYRIC_RETURN_NOT_OK(pager.Sync());
  }

  // Redo recovery: replay committed WAL transactions into the data file
  // before any page is interpreted, then truncate the log. Deterministic
  // — a second open after a crash mid-recovery replays the same images.
  const std::string wal_path = WalPathFor(opts.path);
  Wal::ReplayStats stats;
  {
    obs::ScopedHistogramTimer timer(recovery_ns);
    LYRIC_ASSIGN_OR_RETURN(
        stats,
        Wal::Replay(wal_path, [&pager](PageId id, const PageBuf& image) {
          return pager.WritePageRaw(id, image);
        }));
    if (stats.images_applied > 0) {
      LYRIC_RETURN_NOT_OK(pager.Sync());
    }
  }
  LYRIC_OBS_COUNT_N("storage.recovery.replayed_txns", stats.committed_txns);
  LYRIC_OBS_COUNT_N("storage.recovery.images_applied", stats.images_applied);
  LYRIC_OBS_COUNT_N("storage.recovery.torn_tail_bytes",
                    stats.torn_tail_bytes);
  LYRIC_ASSIGN_OR_RETURN(store->wal_, Wal::Open(wal_path));
  LYRIC_RETURN_NOT_OK(store->wal_->Reset(stats.next_lsn));
  // Everything replayed is in the fsynced data file.
  store->durable_lsn_.store(stats.next_lsn - 1);

  PageBuf meta_page;
  LYRIC_RETURN_NOT_OK(pager.ReadPage(0, &meta_page));
  if (!store->meta_.DecodeFrom(meta_page)) {
    return Status::DataLoss("'" + opts.path +
                            "' is not a lyric paged store (bad meta page)");
  }
  store->pager_ = std::make_unique<Pager>(std::move(pager));
  store->pool_ = std::make_unique<BufferPool>(
      store->pager_.get(), opts.pool_pages, &store->durable_lsn_);
  // The private-base upcast is only accessible here, inside the class.
  PageAllocator* alloc = store.get();
  store->tree_ = std::make_unique<BTree>(store->pool_.get(), alloc);
  store->recovery_ = {stats.committed_txns, stats.images_applied,
                      stats.torn_tail_bytes};
  LYRIC_OBS_COUNT("storage.store.opens");
  return store;
}

PagedStore::~PagedStore() { static_cast<void>(Close()); }

Status PagedStore::MaybePoison(Status st) {
  if (st.ok() || st.IsInvalidArgument() || st.IsNotFound()) return st;
  return Poison(std::move(st));
}

Status PagedStore::Poison(Status st) {
  if (poisoned_.ok()) {
    poisoned_ = st;
    LYRIC_OBS_COUNT("storage.store.poisoned");
  }
  return st;
}

Result<PageRef> PagedStore::Allocate(PageType type) {
  mu_.AssertHeld();
  if (meta_.free_head != kInvalidPage) {
    const PageId id = meta_.free_head;
    PageId next;
    {
      LYRIC_ASSIGN_OR_RETURN(PageRef page, pool_->Fetch(id));
      if (GetPageType(page.buf()) != PageType::kFree) {
        return Status::DataLoss("free-list page " + std::to_string(id) +
                                " is not marked free");
      }
      next = Load64(page.buf().data() + kPageHeaderSize);
    }
    LYRIC_ASSIGN_OR_RETURN(PageRef fresh, pool_->CreateZeroed(id, type));
    meta_.free_head = next;
    LYRIC_OBS_COUNT("storage.page.freelist_reuse");
    return fresh;
  }
  const PageId id = meta_.page_count++;
  LYRIC_OBS_COUNT("storage.page.allocated");
  return pool_->CreateZeroed(id, type);
}

Status PagedStore::Free(PageId id) {
  mu_.AssertHeld();
  LYRIC_ASSIGN_OR_RETURN(PageRef page,
                         pool_->CreateZeroed(id, PageType::kFree));
  Store64(page.buf().data() + kPageHeaderSize, meta_.free_head);
  page.MarkDirty();
  meta_.free_head = id;
  LYRIC_OBS_COUNT("storage.page.freed");
  return Status::OK();
}

Status PagedStore::Put(std::string_view key, std::string_view value) {
  sync::MutexLock lock(mu_);
  LYRIC_RETURN_NOT_OK(poisoned_);
  next_seq_.clear();
  return PutLocked(key, value);
}

Status PagedStore::PutLocked(std::string_view key, std::string_view value) {
  PageId root = meta_.btree_root;
  auto replaced_or = tree_->Put(&root, key, value);
  if (!replaced_or.ok()) return MaybePoison(replaced_or.status());
  meta_.btree_root = root;
  if (!replaced_or.value()) ++meta_.record_count;
  LYRIC_OBS_COUNT("storage.store.puts");
  return Status::OK();
}

Result<std::string> PagedStore::Get(std::string_view key) {
  sync::MutexLock lock(mu_);
  LYRIC_RETURN_NOT_OK(poisoned_);
  return tree_->Get(meta_.btree_root, key);
}

Status PagedStore::Delete(std::string_view key) {
  sync::MutexLock lock(mu_);
  LYRIC_RETURN_NOT_OK(poisoned_);
  next_seq_.clear();
  return DeleteLocked(key);
}

Status PagedStore::DeleteLocked(std::string_view key) {
  auto existed_or = tree_->Delete(meta_.btree_root, key);
  if (!existed_or.ok()) return MaybePoison(existed_or.status());
  if (existed_or.value()) {
    --meta_.record_count;
    LYRIC_OBS_COUNT("storage.store.deletes");
  }
  return Status::OK();
}

Status PagedStore::Scan(
    std::string_view lower,
    const std::function<Result<bool>(std::string_view, std::string_view)>&
        fn) {
  sync::MutexLock lock(mu_);
  LYRIC_RETURN_NOT_OK(poisoned_);
  return tree_->Scan(meta_.btree_root, lower, fn);
}

Status PagedStore::Commit() {
  uint64_t lsn = 0;
  {
    sync::MutexLock lock(mu_);
    LYRIC_RETURN_NOT_OK(poisoned_);
    LYRIC_ASSIGN_OR_RETURN(lsn, AppendCommitLocked());
  }
  return WaitDurable(lsn);
}

void PagedStore::AdvanceDurable(uint64_t lsn) {
  uint64_t seen = durable_lsn_.load();
  while (seen < lsn && !durable_lsn_.compare_exchange_weak(seen, lsn)) {
  }
}

Status PagedStore::WaitDurable(uint64_t lsn) {
  if (lsn <= durable_lsn()) return Status::OK();
  Wal* wal = nullptr;
  {
    sync::MutexLock lock(mu_);
    LYRIC_RETURN_NOT_OK(poisoned_);
    wal = wal_.get();  // Set once by Open; Wal locks for itself.
  }
  Status st = wal->SyncTo(lsn);
  if (!st.ok()) {
    sync::MutexLock lock(mu_);
    return Poison(st);
  }
  AdvanceDurable(lsn);
  return Status::OK();
}

Result<uint64_t> PagedStore::AppendCommitLocked() {
  static obs::Counter& commits =
      obs::Registry::Global().GetCounter("storage.commit.count");
  static obs::Histogram& commit_ns =
      obs::Registry::Global().GetHistogram("storage.commit_ns");
  static obs::Histogram& commit_pages =
      obs::Registry::Global().GetHistogram("storage.commit.pages");
  if (!pool_->HasUnlogged()) return uint64_t{0};
  obs::ScopedHistogramTimer timer(commit_ns);

  // Refresh the meta page: root, free list and record count move only
  // here. committed_lsn is the LSN the commit record below will get —
  // predictable because the engine lock makes this store single-writer.
  {
    LYRIC_ASSIGN_OR_RETURN(PageRef meta_frame, pool_->Fetch(0));
    // Dirty the meta frame first so the count includes its image.
    meta_frame.MarkDirty();
    meta_.committed_lsn = wal_->NextLsn() + pool_->UnloggedCount();
    meta_.EncodeTo(meta_frame.buf());
  }
  const uint64_t predicted = meta_.committed_lsn;

  const auto snapshot = pool_->SnapshotUnlogged();
  for (const auto& [id, image] : snapshot) {
    auto lsn_or = wal_->AppendPageImage(id, image);
    if (!lsn_or.ok()) return MaybePoison(lsn_or.status());
  }
  auto commit_or = wal_->AppendCommit(snapshot.size());
  if (!commit_or.ok()) return MaybePoison(commit_or.status());
  if (commit_or.value() != predicted) {
    return MaybePoison(Status::Internal(
        "commit LSN drifted from prediction (" +
        std::to_string(commit_or.value()) + " vs " +
        std::to_string(predicted) + ") — concurrent WAL writer?"));
  }
  // The frames may reach the data file once this LSN is durable.
  pool_->MarkLogged(snapshot, predicted);
  if (!opts_.sync_commits) AdvanceDurable(predicted);
  commits.Increment();
  commit_pages.Record(snapshot.size());
  return predicted;
}

Status PagedStore::Checkpoint() {
  sync::MutexLock lock(mu_);
  LYRIC_RETURN_NOT_OK(poisoned_);
  return CheckpointLocked();
}

Status PagedStore::CheckpointLocked() {
  static obs::Counter& checkpoints =
      obs::Registry::Global().GetCounter("storage.checkpoint.count");
  static obs::Histogram& checkpoint_ns =
      obs::Registry::Global().GetHistogram("storage.checkpoint_ns");
  obs::ScopedHistogramTimer timer(checkpoint_ns);
  LYRIC_RETURN_NOT_OK(AppendCommitLocked().status());
  // The write-ahead rule: the log is durable before any page it covers
  // is flushed.
  const uint64_t appended = wal_->NextLsn() - 1;
  if (appended > durable_lsn()) {
    Status st = wal_->SyncTo(appended);
    if (!st.ok()) return MaybePoison(st);
    AdvanceDurable(appended);
  }
  Status st = pool_->FlushDirty();
  if (!st.ok()) return MaybePoison(st);
  st = pager_->Sync();
  if (!st.ok()) return MaybePoison(st);
  // Every committed image is now durably in the data file; the log can
  // start over, numbering on from where it stopped.
  st = wal_->Reset(wal_->NextLsn());
  if (!st.ok()) return MaybePoison(st);
  checkpoints.Increment();
  return Status::OK();
}

Status PagedStore::Close() {
  sync::MutexLock lock(mu_);
  if (closed_ || pager_ == nullptr) {
    closed_ = true;
    return Status::OK();
  }
  Status st = poisoned_.ok() ? CheckpointLocked() : poisoned_;
  closed_ = true;
  Status close_st = pager_->Close();
  return st.ok() ? close_st : st;
}

Status PagedStore::ImportDatabase(Database& db) {
  uint64_t lsn = 0;
  {
    sync::MutexLock lock(mu_);
    LYRIC_RETURN_NOT_OK(poisoned_);
    if (meta_.record_count != 0) {
      return Status::InvalidArgument(
          "ImportDatabase requires an empty store; '" + opts_.path +
          "' holds " + std::to_string(meta_.record_count) + " records");
    }
    std::map<std::string, std::string> records;
    LYRIC_RETURN_NOT_OK(BuildRecords(db, &records));
    for (const auto& [key, value] : records) {
      LYRIC_RETURN_NOT_OK(PutLocked(key, value));
    }
    next_seq_.clear();
    LYRIC_OBS_COUNT("storage.store.imports");
    LYRIC_ASSIGN_OR_RETURN(lsn, AppendCommitLocked());
  }
  LYRIC_RETURN_NOT_OK(WaitDurable(lsn));
  // The store now holds every record, so nothing is pending.
  db.TakeChanges();
  return Status::OK();
}

Result<uint64_t> PagedStore::ApplyChanges(const Database& db,
                                          const ChangeSet& changes) {
  static obs::Histogram& sync_ns =
      obs::Registry::Global().GetHistogram("storage.sync_db_ns");
  sync::MutexLock lock(mu_);
  LYRIC_RETURN_NOT_OK(poisoned_);
  if (changes.empty()) return uint64_t{0};
  obs::ScopedHistogramTimer timer(sync_ns);
  for (const Change& change : changes) {
    Status st = ApplyChangeLocked(db, change);
    // The changes before this one sit in unlogged frames and cannot be
    // rolled back, so any failure is fail-stop.
    if (!st.ok()) return Poison(st);
  }
  LYRIC_OBS_COUNT("storage.store.syncs");
  return AppendCommitLocked();
}

Status PagedStore::ApplyChangeLocked(const Database& db,
                                     const Change& change) {
  // Records are rendered from `db` as it stands now. A change whose
  // object or fact is gone was undone by a later kDeleteObject in the
  // same set, which removes the records, so it writes nothing.
  auto obj = db.objects().find(change.oid);
  const bool live = obj != db.objects().end();
  switch (change.kind) {
    case Change::Kind::kClass: {
      LYRIC_ASSIGN_OR_RETURN(const ClassDef* def,
                             db.schema().GetClass(change.name));
      LYRIC_ASSIGN_OR_RETURN(std::string text, Serializer::ClassText(*def));
      LYRIC_ASSIGN_OR_RETURN(std::string key, NextSeqKeyLocked('C'));
      return PutLocked(key, text);
    }
    case Change::Kind::kObject:
      if (!live) return Status::OK();
      return PutLocked(ObjectKey(change.oid),
                       Serializer::ClassNameText(obj->second.class_name));
    case Change::Kind::kAttribute: {
      if (!live) return Status::OK();
      auto attr = obj->second.attrs.find(change.name);
      if (attr == obj->second.attrs.end()) {
        return DeleteLocked(AttributeKey(change.oid, change.name));
      }
      LYRIC_ASSIGN_OR_RETURN(std::string text,
                             Serializer::ValueText(db, attr->second));
      return PutLocked(AttributeKey(change.oid, change.name), text);
    }
    case Change::Kind::kInstanceOf: {
      auto facts = db.extra_instance_of().find(change.oid);
      if (facts == db.extra_instance_of().end() ||
          std::find(facts->second.begin(), facts->second.end(),
                    change.name) == facts->second.end()) {
        return Status::OK();
      }
      LYRIC_ASSIGN_OR_RETURN(
          std::string line,
          Serializer::InstanceOfLine(db, change.oid, change.name));
      LYRIC_ASSIGN_OR_RETURN(std::string key, NextSeqKeyLocked('I'));
      return PutLocked(key, line);
    }
    case Change::Kind::kDeleteObject:
      return DeleteObjectRecordsLocked(db, change.oid);
  }
  return Status::Internal("unknown change kind");
}

Status PagedStore::DeleteObjectRecordsLocked(const Database& db,
                                             const Oid& oid) {
  std::vector<std::string> doomed{ObjectKey(oid)};
  const std::string attr_prefix = AttributeKey(oid, "");
  LYRIC_RETURN_NOT_OK(tree_->Scan(
      meta_.btree_root, attr_prefix,
      [&](std::string_view key, std::string_view) -> Result<bool> {
        if (key.substr(0, attr_prefix.size()) != attr_prefix) return false;
        doomed.emplace_back(key);
        return true;
      }));
  // Fact keys say nothing about their oid, so scan the 'I' range for
  // the lines that start "INSTANCEOF <oid> => " (a quoted class name may
  // itself hold " => "). No served query deletes objects; this is the
  // API's path. The probe's class, "CST", is written raw.
  LYRIC_ASSIGN_OR_RETURN(std::string probe,
                         Serializer::InstanceOfLine(db, oid, kCstClass));
  const std::string head = probe.substr(0, probe.rfind(" => ") + 4);
  const std::string fact_prefix = "I\x1f";
  LYRIC_RETURN_NOT_OK(tree_->Scan(
      meta_.btree_root, fact_prefix,
      [&](std::string_view key, std::string_view value) -> Result<bool> {
        if (key.substr(0, fact_prefix.size()) != fact_prefix) return false;
        if (value.substr(0, head.size()) == head) doomed.emplace_back(key);
        return true;
      }));
  for (const std::string& key : doomed) {
    LYRIC_RETURN_NOT_OK(DeleteLocked(key));
  }
  return Status::OK();
}

Result<std::string> PagedStore::NextSeqKeyLocked(char prefix) {
  auto next = next_seq_.find(prefix);
  if (next == next_seq_.end()) {
    // First append since open (or since a raw Put/Delete): continue after
    // the highest key the store holds.
    const std::string range{prefix, '\x1f'};
    uint64_t after_max = 0;
    LYRIC_RETURN_NOT_OK(tree_->Scan(
        meta_.btree_root, range,
        [&](std::string_view key, std::string_view) -> Result<bool> {
          if (key.substr(0, range.size()) != range) return false;
          uint64_t seq = 0;
          for (char c : key.substr(range.size())) {
            if (c < '0' || c > '9') {
              return Status::DataLoss("malformed sequence key in '" +
                                      opts_.path + "'");
            }
            seq = seq * 10 + static_cast<uint64_t>(c - '0');
          }
          after_max = std::max(after_max, seq + 1);
          return true;
        }));
    next = next_seq_.emplace(prefix, after_max).first;
  }
  return SeqKey(prefix, next->second++);
}

Status PagedStore::ExportToDatabase(Database* db) {
  sync::MutexLock lock(mu_);
  LYRIC_RETURN_NOT_OK(poisoned_);
  std::string classes;
  std::string instances;
  std::map<std::string, std::string> obj_class;
  std::map<std::string, std::vector<std::pair<std::string, std::string>>>
      obj_attrs;
  LYRIC_RETURN_NOT_OK(tree_->Scan(
      meta_.btree_root, "",
      [&](std::string_view key, std::string_view value) -> Result<bool> {
        if (key.size() < 2 || key[1] != '\x1f') {
          return Status::DataLoss("malformed record key in '" + opts_.path +
                                  "'");
        }
        switch (key[0]) {
          case 'A': {
            const size_t sep = key.rfind('\x1f');
            if (sep < 2) {
              return Status::DataLoss("malformed attribute key");
            }
            obj_attrs[std::string(key.substr(2, sep - 2))].emplace_back(
                std::string(key.substr(sep + 1)), std::string(value));
            break;
          }
          case 'C':
            classes.append(value);
            break;
          case 'I':
            instances.append(value);
            break;
          case 'O':
            obj_class.emplace(std::string(key.substr(2)),
                              std::string(value));
            break;
          default:
            return Status::DataLoss(
                "unknown record key prefix '" +
                std::string(1, key[0]) + "' in '" + opts_.path + "'");
        }
        return true;
      }));

  std::ostringstream out;
  out << "-- lyric database dump v1\n" << classes;
  for (const auto& [oid_text, cls] : obj_class) {
    out << "OBJECT " << oid_text << " => " << cls << " [\n";
    auto it = obj_attrs.find(oid_text);
    if (it != obj_attrs.end()) {
      for (const auto& [attr, vt] : it->second) {
        out << "  " << attr << " = " << vt << ";\n";
      }
      obj_attrs.erase(it);
    }
    out << "]\n";
  }
  if (!obj_attrs.empty()) {
    return Status::DataLoss("attribute records for unknown object '" +
                            obj_attrs.begin()->first + "' in '" +
                            opts_.path + "'");
  }
  out << instances;
  LYRIC_OBS_COUNT("storage.store.exports");
  LYRIC_RETURN_NOT_OK(Serializer::LoadDatabase(out.str(), db));
  // The hydrated database is what the store holds: nothing is pending.
  db->TakeChanges();
  return Status::OK();
}

uint64_t PagedStore::RecordCount() {
  sync::MutexLock lock(mu_);
  return meta_.record_count;
}

bool PagedStore::HasUncommitted() {
  sync::MutexLock lock(mu_);
  return pool_ != nullptr && pool_->HasUnlogged();
}

Status PagedStore::poison_status() {
  sync::MutexLock lock(mu_);
  return poisoned_;
}

}  // namespace storage
}  // namespace lyric
