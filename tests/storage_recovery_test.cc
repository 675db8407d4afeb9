// Satellite: kill -9 crash matrix. A writer process is killed at
// randomized (deterministically seeded) WAL byte offsets via the
// LYRIC_STORAGE_CRASH_AT budget; the reopened store must recover
// EXACTLY the longest durable prefix of commits — never a partial
// transaction, never corruption — and keep answering the paper query
// suite byte-identically. An in-process matrix additionally truncates a
// copied WAL at every interesting boundary, and torn-page/corpus tests
// prove corruption surfaces as typed kDataLoss, never a crash.

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "office/office_db.h"
#include "query/evaluator.h"
#include "storage/file_io.h"
#include "storage/paged_store.h"
#include "storage/serializer.h"

#ifndef LYRIC_TEST_CORPUS_DIR
#define LYRIC_TEST_CORPUS_DIR "tests/corpus"
#endif

namespace lyric {
namespace storage {
namespace {

using KvState = std::map<std::string, std::string>;

// Reference-run stores must stay open so their WAL files survive for
// copying (Close would checkpoint and truncate them). Parking them here
// keeps them reachable — no leak-sanitizer report — and never destructs
// them (heap-allocated holder), so no exit-time checkpoint either.
std::vector<std::unique_ptr<PagedStore>>& ParkedStores() {
  static auto* v = new std::vector<std::unique_ptr<PagedStore>>();
  return *v;
}

std::string FreshPath(const std::string& name) {
  std::string path = ::testing::TempDir() + "/" + name;
  ::unlink(path.c_str());
  ::unlink(PagedStore::WalPathFor(path).c_str());
  return path;
}

uint64_t FileSize(const std::string& path) {
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

void CopyFile(const std::string& src, const std::string& dst) {
  std::filesystem::copy_file(src, dst,
                             std::filesystem::copy_options::overwrite_existing);
}

KvState ScanAll(PagedStore* store) {
  KvState out;
  Status st = store->Scan("", [&](std::string_view k, std::string_view v) {
    out.emplace(std::string(k), std::string(v));
    return Result<bool>(true);
  });
  EXPECT_TRUE(st.ok()) << st;
  return out;
}

// The deterministic multi-transaction workload the crash matrix kills.
// Transaction t writes keys that overlap earlier transactions (updates)
// and adds new ones, then commits. Mirrors the writes into `expected`
// snapshots when provided. Returns non-OK on any storage error.
constexpr int kTxns = 8;
constexpr int kKeysPerTxn = 12;

Status RunKvWorkload(const std::string& path,
                     std::vector<uint64_t>* wal_size_after_commit,
                     std::vector<KvState>* states) {
  StoreOptions opts;
  opts.path = path;
  opts.pool_pages = 256;  // ample: no eviction, data file stays fresh
  LYRIC_ASSIGN_OR_RETURN(auto store, PagedStore::Open(opts));
  KvState mirror;
  if (states != nullptr) states->push_back(mirror);  // S_0: empty
  for (int t = 1; t <= kTxns; ++t) {
    for (int j = 0; j < kKeysPerTxn; ++j) {
      // Key space 20 wide: txns overwrite one another's keys.
      std::string k = "key" + std::to_string((t * 5 + j) % 20);
      std::string v = "txn" + std::to_string(t) + "-v" + std::to_string(j) +
                      std::string(40, 'a' + (t + j) % 26);
      LYRIC_RETURN_NOT_OK(store->Put(k, v));
      mirror[k] = v;
    }
    LYRIC_RETURN_NOT_OK(store->Commit());
    if (wal_size_after_commit != nullptr) {
      wal_size_after_commit->push_back(FileSize(PagedStore::WalPathFor(path)));
    }
    if (states != nullptr) states->push_back(mirror);
  }
  // No Close: the caller either _exits (crash child) or wants the WAL
  // left intact for inspection.
  ParkedStores().push_back(std::move(store));
  return Status::OK();
}

// Forks a child that arms the crash budget at `offset` appended WAL
// bytes and runs the workload. Returns the child's wait status.
int RunCrashChild(const std::string& path, int64_t offset) {
  ::pid_t pid = ::fork();
  if (pid == 0) {
    ArmCrashBudget(offset);
    Status st = RunKvWorkload(path, nullptr, nullptr);
    ::_exit(st.ok() ? 0 : 3);
  }
  int wstatus = 0;
  ::waitpid(pid, &wstatus, 0);
  return wstatus;
}

TEST(StorageRecoveryTest, CrashMatrixRecoversExactDurablePrefix) {
  // Reference run (no crash): per-commit WAL sizes and expected states.
  std::string ref_path = FreshPath("rec_ref.lyricpg");
  std::vector<uint64_t> wal_after;  // c_1..c_m, file sizes incl. header
  std::vector<KvState> states;      // S_0..S_m
  ASSERT_TRUE(RunKvWorkload(ref_path, &wal_after, &states).ok());
  ASSERT_EQ(wal_after.size(), static_cast<size_t>(kTxns));
  const int64_t total =
      static_cast<int64_t>(wal_after.back() - Wal::kHeaderSize);

  // The matrix: exact commit boundaries, their neighbors, and seeded
  // random offsets across the whole log.
  std::vector<int64_t> offsets;
  for (uint64_t c : {wal_after[0], wal_after[kTxns / 2], wal_after.back()}) {
    int64_t b = static_cast<int64_t>(c - Wal::kHeaderSize);
    offsets.push_back(b - 1);
    offsets.push_back(b);
    offsets.push_back(b + 1);
  }
  std::mt19937_64 rng(20260808);  // deterministic seed
  std::uniform_int_distribution<int64_t> dist(1, total - 1);
  for (int i = 0; i < 8; ++i) offsets.push_back(dist(rng));
  std::sort(offsets.begin(), offsets.end());
  offsets.erase(std::unique(offsets.begin(), offsets.end()), offsets.end());

  int matrix_point = 0;
  for (int64_t n : offsets) {
    SCOPED_TRACE("crash offset " + std::to_string(n));
    std::string path =
        FreshPath("rec_crash_" + std::to_string(matrix_point++) + ".lyricpg");
    int wstatus = RunCrashChild(path, n);
    ASSERT_TRUE(WIFEXITED(wstatus));
    if (n < total) {
      ASSERT_EQ(WEXITSTATUS(wstatus), 137);  // died mid-append, as armed
    } else {
      ASSERT_EQ(WEXITSTATUS(wstatus), 0);  // budget never crossed
    }

    // Recovery must land on S_j for j = max{j : commit j fully appended
    // at offset n}. (Commit j's last byte is wal_after[j-1] - header.)
    size_t j = 0;
    while (j < wal_after.size() &&
           static_cast<int64_t>(wal_after[j] - Wal::kHeaderSize) <= n) {
      ++j;
    }
    StoreOptions opts;
    opts.path = path;
    auto store_or = PagedStore::Open(opts);
    ASSERT_TRUE(store_or.ok()) << store_or.status();
    auto store = std::move(*store_or);
    EXPECT_EQ(store->recovery().committed_txns, j);
    EXPECT_EQ(ScanAll(store.get()), states[j]);
    ASSERT_TRUE(store->Close().ok());
  }
}

TEST(StorageRecoveryTest, RecoveredStoreStaysWritable) {
  // Kill mid-log, recover, then keep writing through another reopen:
  // the post-recovery WAL reset must leave a fully serviceable log.
  std::string ref_path = FreshPath("rec_w_ref.lyricpg");
  std::vector<uint64_t> wal_after;
  std::vector<KvState> states;
  ASSERT_TRUE(RunKvWorkload(ref_path, &wal_after, &states).ok());
  const int64_t mid =
      static_cast<int64_t>(wal_after[kTxns / 2] - Wal::kHeaderSize) + 177;

  std::string path = FreshPath("rec_writable.lyricpg");
  int wstatus = RunCrashChild(path, mid);
  ASSERT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 137);

  {
    auto store = PagedStore::Open({.path = path}).value();
    ASSERT_TRUE(store->Put("after-crash", "alive").ok());
    ASSERT_TRUE(store->Commit().ok());
    ASSERT_TRUE(store->Close().ok());
  }
  auto store = PagedStore::Open({.path = path}).value();
  EXPECT_EQ(store->Get("after-crash").value(), "alive");
  ASSERT_TRUE(store->Close().ok());
}

TEST(StorageRecoveryTest, ImportCrashMatrixAnswersPaperSuiteByteIdentically) {
  Database db;
  auto ids = office::BuildOfficeDatabase(&db);
  ASSERT_TRUE(ids.ok()) << ids.status();
  std::string dump_ref = Serializer::DumpDatabase(db).value();

  // Reference import to size the single import transaction.
  std::string ref_path = FreshPath("rec_imp_ref.lyricpg");
  {
    auto store = PagedStore::Open({.path = ref_path}).value();
    ASSERT_TRUE(store->ImportDatabase(db).ok());
    ParkedStores().push_back(std::move(store));  // keep the WAL intact
  }
  const int64_t import_bytes = static_cast<int64_t>(
      FileSize(PagedStore::WalPathFor(ref_path)) - Wal::kHeaderSize);
  ASSERT_GT(import_bytes, 0);

  const std::vector<int64_t> offsets = {
      1,     import_bytes / 3,  import_bytes / 2, (import_bytes * 9) / 10,
      import_bytes - 1, import_bytes};
  int point = 0;
  for (int64_t n : offsets) {
    SCOPED_TRACE("import crash offset " + std::to_string(n));
    std::string path =
        FreshPath("rec_imp_" + std::to_string(point++) + ".lyricpg");
    ::pid_t pid = ::fork();
    if (pid == 0) {
      ArmCrashBudget(n);
      Database child_db;
      if (!office::BuildOfficeDatabase(&child_db).ok()) ::_exit(3);
      auto store_or = PagedStore::Open({.path = path});
      if (!store_or.ok()) ::_exit(3);
      Status st = (*store_or)->ImportDatabase(child_db);
      (*store_or).release();
      ::_exit(st.ok() ? 0 : 3);
    }
    int wstatus = 0;
    ::waitpid(pid, &wstatus, 0);
    ASSERT_TRUE(WIFEXITED(wstatus));
    ASSERT_EQ(WEXITSTATUS(wstatus), n < import_bytes ? 137 : 0);

    auto store = PagedStore::Open({.path = path}).value();
    if (n < import_bytes) {
      // The import transaction tore: all or nothing means nothing.
      EXPECT_EQ(store->RecordCount(), 0u);
    } else {
      Database loaded;
      ASSERT_TRUE(store->ExportToDatabase(&loaded).ok());
      // Byte-identical dump => byte-identical answers to every query in
      // the paper suite; spot-check Q2 end to end on top.
      EXPECT_EQ(Serializer::DumpDatabase(loaded).value(), dump_ref);
      Evaluator ev(&loaded);
      ResultSet r = ev.Execute(
                          "SELECT CO, ((u, v) | E and D and x = 6 and y = 4) "
                          "FROM Office_Object CO "
                          "WHERE CO.extent[E] and CO.translation[D]")
                        .value();
      ASSERT_EQ(r.size(), 1u);
      CstObject answer = loaded.GetCst(r.rows()[0][1]).value();
      EXPECT_TRUE(answer.Contains({Rational(2), Rational(2)}).value());
      EXPECT_FALSE(answer.Contains({Rational(1), Rational(2)}).value());
    }
    ASSERT_TRUE(store->Close().ok());
  }
}

TEST(StorageRecoveryTest, TruncatedWalMatrixEveryBoundary) {
  // Build a store whose data file is untouched since creation (ample
  // pool, no checkpoint), snapshot both files, then truncate the WAL
  // copy at every interesting length: header edges, each commit
  // boundary +/- 1, mid-record offsets. Open must succeed every time
  // and recover exactly the longest prefix of whole commits.
  std::string base = FreshPath("rec_trunc_base.lyricpg");
  std::vector<uint64_t> wal_after;
  std::vector<KvState> states;
  ASSERT_TRUE(RunKvWorkload(base, &wal_after, &states).ok());
  const std::string wal_base = PagedStore::WalPathFor(base);
  const uint64_t wal_size = FileSize(wal_base);

  std::vector<uint64_t> lengths = {0, 1, Wal::kHeaderSize - 1,
                                   Wal::kHeaderSize, Wal::kHeaderSize + 1};
  for (uint64_t c : wal_after) {
    lengths.push_back(c - 1);
    lengths.push_back(c);
    lengths.push_back(c + 40);  // mid-record of the following txn
  }
  std::sort(lengths.begin(), lengths.end());
  lengths.erase(std::unique(lengths.begin(), lengths.end()), lengths.end());

  int point = 0;
  for (uint64_t len : lengths) {
    if (len > wal_size) continue;
    SCOPED_TRACE("wal truncated to " + std::to_string(len));
    std::string path =
        FreshPath("rec_trunc_" + std::to_string(point++) + ".lyricpg");
    CopyFile(base, path);
    CopyFile(wal_base, PagedStore::WalPathFor(path));
    ASSERT_EQ(::truncate(PagedStore::WalPathFor(path).c_str(),
                         static_cast<off_t>(len)),
              0);

    size_t j = 0;
    while (j < wal_after.size() && wal_after[j] <= len) ++j;
    auto store_or = PagedStore::Open({.path = path});
    ASSERT_TRUE(store_or.ok()) << store_or.status();
    auto store = std::move(*store_or);
    EXPECT_EQ(store->recovery().committed_txns, j);
    EXPECT_EQ(ScanAll(store.get()), states[j]);
    ASSERT_TRUE(store->Close().ok());
  }
}

TEST(StorageRecoveryTest, CorruptWalHeaderIsTypedDataLoss) {
  std::string base = FreshPath("rec_hdr_base.lyricpg");
  ASSERT_TRUE(RunKvWorkload(base, nullptr, nullptr).ok());
  std::string path = FreshPath("rec_hdr.lyricpg");
  CopyFile(base, path);
  CopyFile(PagedStore::WalPathFor(base), PagedStore::WalPathFor(path));
  {
    File f = File::OpenReadWrite(PagedStore::WalPathFor(path)).value();
    uint8_t garbage = 0x5A;
    ASSERT_TRUE(f.WriteAt(3, &garbage, 1).ok());
  }
  auto store = PagedStore::Open({.path = path});
  ASSERT_FALSE(store.ok());
  EXPECT_TRUE(store.status().IsDataLoss()) << store.status();
}

TEST(StorageRecoveryTest, TornDataPageIsTypedDataLoss) {
  std::string path = FreshPath("rec_torn.lyricpg");
  {
    auto store = PagedStore::Open({.path = path}).value();
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(
          store->Put("key" + std::to_string(i), std::string(100, 'x')).ok());
    }
    ASSERT_TRUE(store->Close().ok());  // checkpoints: pages hit the file
  }
  ASSERT_GT(FileSize(path), kPageSize);  // more than just the meta page
  {
    // Flip a byte inside page 1 (a B-tree page after checkpoint).
    File f = File::OpenReadWrite(path).value();
    uint8_t b = 0;
    ASSERT_TRUE(f.ReadAt(kPageSize + 100, &b, 1).ok());
    b ^= 0xFF;
    ASSERT_TRUE(f.WriteAt(kPageSize + 100, &b, 1).ok());
  }
  {
    // Open succeeds (only page 0 is read); touching the torn page is a
    // typed kDataLoss, never a crash or a wrong answer.
    auto store = PagedStore::Open({.path = path}).value();
    bool hit_data_loss = false;
    for (int i = 0; i < 50 && !hit_data_loss; ++i) {
      auto got = store->Get("key" + std::to_string(i));
      if (!got.ok()) {
        EXPECT_TRUE(got.status().IsDataLoss()) << got.status();
        hit_data_loss = true;
      }
    }
    EXPECT_TRUE(hit_data_loss);
    (void)store->Close();
  }
  {
    // Now corrupt the meta page: Open itself must fail typed.
    File f = File::OpenReadWrite(path).value();
    uint8_t b = 0;
    ASSERT_TRUE(f.ReadAt(kPageHeaderSize + 2, &b, 1).ok());
    b ^= 0xFF;
    ASSERT_TRUE(f.WriteAt(kPageHeaderSize + 2, &b, 1).ok());
  }
  auto broken = PagedStore::Open({.path = path});
  ASSERT_FALSE(broken.ok());
  EXPECT_TRUE(broken.status().IsDataLoss()) << broken.status();
}

TEST(StorageRecoveryTest, CorpusArtifactsNeverCrashRecovery) {
  // Every checked-in damaged store must either open (and then scan
  // clean or fail typed) or fail to open with a typed status. The
  // corpus holds real kill -9 debris plus hand-damaged files.
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(LYRIC_TEST_CORPUS_DIR) / "storage";
  ASSERT_TRUE(fs::exists(dir)) << dir;
  int seen = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (entry.path().extension() != ".lyricpg") continue;
    SCOPED_TRACE(name);
    ++seen;
    // Work on copies: recovery may truncate/rewrite the WAL.
    std::string path = FreshPath("corpus_" + name);
    CopyFile(entry.path().string(), path);
    std::string src_wal = entry.path().string() + "-wal";
    if (fs::exists(src_wal)) CopyFile(src_wal, PagedStore::WalPathFor(path));

    auto store_or = PagedStore::Open({.path = path});
    if (!store_or.ok()) {
      EXPECT_TRUE(store_or.status().IsDataLoss() ||
                  store_or.status().IsInternal())
          << store_or.status();
      continue;
    }
    auto store = std::move(*store_or);
    KvState all;
    Status st = store->Scan("", [&](std::string_view k, std::string_view v) {
      all.emplace(std::string(k), std::string(v));
      return Result<bool>(true);
    });
    EXPECT_TRUE(st.ok() || st.IsDataLoss()) << st;
    (void)store->Close();
  }
  EXPECT_GE(seen, 4) << "storage corpus went missing";
}

// Regenerates the checked-in corpus (tests/corpus/storage). Skipped in
// normal runs; set LYRIC_REGEN_STORAGE_CORPUS=1 and run this test alone
// to rebuild the artifacts deterministically.
TEST(StorageRecoveryTest, RegenerateCorpusArtifacts) {
  const char* regen = ::getenv("LYRIC_REGEN_STORAGE_CORPUS");
  if (regen == nullptr || *regen == '\0') {
    GTEST_SKIP() << "set LYRIC_REGEN_STORAGE_CORPUS=1 to regenerate";
  }
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(LYRIC_TEST_CORPUS_DIR) / "storage";
  fs::create_directories(dir);

  auto emit = [&](const std::string& src, const std::string& name) {
    CopyFile(src, (dir / name).string());
    if (fs::exists(PagedStore::WalPathFor(src))) {
      CopyFile(PagedStore::WalPathFor(src), (dir / (name + "-wal")).string());
    }
  };

  // 1. Real kill -9 debris: torn mid-commit.
  std::vector<uint64_t> wal_after;
  std::string ref = FreshPath("corpusgen_ref.lyricpg");
  ASSERT_TRUE(RunKvWorkload(ref, &wal_after, nullptr).ok());
  std::string torn = FreshPath("corpusgen_torn.lyricpg");
  int wstatus = RunCrashChild(
      torn, static_cast<int64_t>(wal_after[2] - Wal::kHeaderSize) + 333);
  ASSERT_TRUE(WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 137);
  emit(torn, "torn_commit.lyricpg");

  // 2. WAL truncated inside a record.
  std::string trunc = FreshPath("corpusgen_trunc.lyricpg");
  CopyFile(ref, trunc);
  CopyFile(PagedStore::WalPathFor(ref), PagedStore::WalPathFor(trunc));
  ASSERT_EQ(::truncate(PagedStore::WalPathFor(trunc).c_str(),
                       static_cast<off_t>(wal_after[1] + 99)),
            0);
  emit(trunc, "truncated_wal.lyricpg");

  // 3. Checkpointed store with a torn B-tree page.
  std::string tornpg = FreshPath("corpusgen_tornpg.lyricpg");
  {
    auto store = PagedStore::Open({.path = tornpg}).value();
    for (int i = 0; i < 80; ++i) {
      ASSERT_TRUE(
          store->Put("k" + std::to_string(i), std::string(200, 'p')).ok());
    }
    ASSERT_TRUE(store->Close().ok());
    File f = File::OpenReadWrite(tornpg).value();
    uint8_t b = 0;
    ASSERT_TRUE(f.ReadAt(2 * kPageSize + 77, &b, 1).ok());
    b ^= 0xA5;
    ASSERT_TRUE(f.WriteAt(2 * kPageSize + 77, &b, 1).ok());
  }
  emit(tornpg, "torn_page.lyricpg");

  // 4. Hand-damaged: wrong magic in the data file.
  std::string badmagic = FreshPath("corpusgen_badmagic.lyricpg");
  {
    File f = File::OpenReadWrite(badmagic).value();
    std::string junk(2 * kPageSize, 'Z');
    ASSERT_TRUE(f.WriteAt(0, junk.data(), junk.size()).ok());
  }
  emit(badmagic, "bad_magic.lyricpg");

  // 5. Valid data file, garbage WAL header.
  std::string badwal = FreshPath("corpusgen_badwal.lyricpg");
  CopyFile(ref, badwal);
  CopyFile(PagedStore::WalPathFor(ref), PagedStore::WalPathFor(badwal));
  {
    File f = File::OpenReadWrite(PagedStore::WalPathFor(badwal)).value();
    uint8_t garbage[8] = {0xDE, 0xAD, 0xBE, 0xEF, 0xDE, 0xAD, 0xBE, 0xEF};
    ASSERT_TRUE(f.WriteAt(8, garbage, sizeof garbage).ok());
  }
  emit(badwal, "bad_wal_header.lyricpg");
}

}  // namespace
}  // namespace storage
}  // namespace lyric
