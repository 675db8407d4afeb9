// Store-backed serving: a Server with ServerOptions::store attached
// must make every acknowledged schema mutation durable BEFORE the
// client sees the response (commit-before-ack), answer no read before
// the mutation it saw is durable, hydrate byte-identically on reopen,
// and degrade to read-only — reads keep serving, writes shed typed
// errors — when the store fails underneath it.
//
// The crash half of the story (kill -9 mid-commit against a real
// lyric_serverd process) lives in server_chaos_test.cc; this binary
// covers the same write-through path in process, where failures can be
// injected deterministically.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "office/office_db.h"
#include "storage/file_io.h"
#include "storage/paged_store.h"
#include "storage/serializer.h"
#include "util/fault.h"

namespace lyric {
namespace {

using storage::PagedStore;
using storage::StoreOptions;

std::string FreshStorePath(const std::string& name) {
  std::string path = ::testing::TempDir() + "/" + name;
  ::unlink(path.c_str());
  ::unlink(PagedStore::WalPathFor(path).c_str());
  return path;
}

Database MakeOfficeDb() {
  Database db;
  auto ids = office::BuildOfficeDatabase(&db);
  EXPECT_TRUE(ids.ok()) << ids.status();
  return db;
}

net::ClientOptions PlainClient(uint16_t port) {
  net::ClientOptions opts;
  opts.port = port;
  return opts;
}

const char kViewQuery[] =
    "CREATE VIEW Near_Wall AS SUBCLASS OF Object_in_Room "
    "SELECT O FROM Object_in_Room O "
    "WHERE O.location[L] and L(x, y) |= x <= 12";
const char kReadQuery[] = "SELECT O FROM Object_in_Room O";
const char kViewReadQuery[] = "SELECT V FROM Near_Wall V";

// The ENOSPC fault gate (fault_gate_server_enospc in tests/CMakeLists.txt):
// ctest runs this whole binary with LYRIC_STORAGE_FULL_AT in the
// environment. This test is defined BEFORE every other test here so the
// once-per-process env parse — the path an operator would actually hit —
// arms the budget, not ArmDiskFullForTesting; it skips in normal runs.
// The fixture tests below disarm in SetUp, so the burned budget cannot
// bleed into them.
TEST(ServerStoreGate, EnvArmedFullDiskDegradesToReadOnlyTyped) {
  if (std::getenv("LYRIC_STORAGE_FULL_AT") == nullptr) {
    GTEST_SKIP() << "gate-only: runs via fault_gate_server_enospc";
  }
  const std::string path = FreshStorePath("srv_store_env_enospc.lyricpg");
  // The gate budget covers boot + the office seed + a few commits.
  auto opened = PagedStore::Open({.path = path});
  ASSERT_TRUE(opened.ok()) << "gate budget too small for boot: "
                           << opened.status().ToString();
  auto store = std::move(*opened);
  Database db = MakeOfficeDb();
  ASSERT_TRUE(store->ImportDatabase(db).ok())
      << "gate budget too small for the seed";

  net::ServerOptions sopts;
  sopts.store = store.get();
  net::Server server(&db, sopts);
  ASSERT_TRUE(server.Start().ok());
  net::Client client(PlainClient(server.port()));

  // CREATE views until the "disk" fills. The crossing commit must come
  // back as the typed kResourceExhausted — never an abort, never a
  // silent ack — and flip the server read-only.
  bool exhausted = false;
  for (int i = 0; i < 200 && !exhausted; ++i) {
    Result<net::QueryResponse> resp = client.Execute(
        "CREATE VIEW Gate_V" + std::to_string(i) +
        " AS SUBCLASS OF Object_in_Room SELECT O FROM Object_in_Room O "
        "WHERE O.location[L] and L(x, y) |= x <= " + std::to_string(i % 20));
    ASSERT_TRUE(resp.ok()) << resp.status();
    if (resp->status.ok()) continue;
    EXPECT_TRUE(resp->status.IsResourceExhausted()) << resp->status;
    exhausted = true;
  }
  ASSERT_TRUE(exhausted) << "gate budget never crossed — lower "
                         << "LYRIC_STORAGE_FULL_AT in the ctest entry";
  EXPECT_TRUE(server.read_only());
  EXPECT_EQ(client.last_server_health(), net::HealthState::kReadOnly);
  // Reads keep serving on the degraded server.
  Result<net::QueryResponse> read = client.Execute(kReadQuery);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_TRUE(read->status.ok()) << read->status;

  server.Stop();
  storage::ArmDiskFullForTesting(-1);
  (void)store->Close();
}

class ServerStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(fault::ConfigureForTesting(""));
    storage::ArmDiskFullForTesting(-1);
  }
  void TearDown() override {
    ASSERT_TRUE(fault::ConfigureForTesting(""));
    storage::ArmDiskFullForTesting(-1);
  }
};

TEST_F(ServerStoreTest, AcknowledgedCreateSurvivesReopenByteIdentically) {
  const std::string path = FreshStorePath("srv_store_roundtrip.lyricpg");

  // Boot 1: seed the store with the office database, serve, CREATE.
  {
    auto store = PagedStore::Open({.path = path}).value();
    Database db = MakeOfficeDb();
    ASSERT_TRUE(store->ImportDatabase(db).ok());

    net::ServerOptions sopts;
    sopts.store = store.get();
    net::Server server(&db, sopts);
    ASSERT_TRUE(server.Start().ok());

    net::Client client(PlainClient(server.port()));
    Result<net::QueryResponse> created = client.Execute(kViewQuery);
    ASSERT_TRUE(created.ok()) << created.status();
    ASSERT_TRUE(created->status.ok()) << created->status;
    // The response was acknowledged, so the mutation is already
    // durable: the server stays healthy (kServing on the frame).
    EXPECT_EQ(client.last_server_health(), net::HealthState::kServing);
    server.Stop();
    ASSERT_TRUE(store->Close().ok());
  }

  // Boot 2: hydrate from the store; the view must be there, and the
  // whole database must dump byte-identically to an in-memory replica
  // that ran the same CREATE.
  {
    auto store = PagedStore::Open({.path = path}).value();
    Database recovered;
    ASSERT_TRUE(store->ExportToDatabase(&recovered).ok());

    Database replica = MakeOfficeDb();
    {
      Evaluator ev(&replica, EvalOptions{});
      auto res = ev.Execute(kViewQuery);
      ASSERT_TRUE(res.ok()) << res.status();
    }
    auto recovered_dump = Serializer::DumpDatabase(recovered);
    auto replica_dump = Serializer::DumpDatabase(replica);
    ASSERT_TRUE(recovered_dump.ok());
    ASSERT_TRUE(replica_dump.ok());
    EXPECT_EQ(*recovered_dump, *replica_dump);

    // And it serves: the hydrated database answers through a server.
    net::ServerOptions sopts;
    sopts.store = store.get();
    net::Server server(&recovered, sopts);
    ASSERT_TRUE(server.Start().ok());
    net::Client client(PlainClient(server.port()));
    Result<net::QueryResponse> read = client.Execute(kViewReadQuery);
    ASSERT_TRUE(read.ok()) << read.status();
    EXPECT_TRUE(read->status.ok()) << read->status;
    server.Stop();
    ASSERT_TRUE(store->Close().ok());
  }
}

TEST_F(ServerStoreTest, FailedWriteThroughDegradesToReadOnly) {
  const std::string path = FreshStorePath("srv_store_degrade.lyricpg");
  auto store = PagedStore::Open({.path = path}).value();
  Database db = MakeOfficeDb();
  ASSERT_TRUE(store->ImportDatabase(db).ok());

  net::ServerOptions sopts;
  sopts.store = store.get();
  sopts.read_only_retry_after_ms = 321;
  net::Server server(&db, sopts);
  ASSERT_TRUE(server.Start().ok());
  net::Client client(PlainClient(server.port()));

  // The disk fills up under the server. The CREATE evaluates fine in
  // memory, but the write-through commit fails — the client must get
  // the typed storage error, NOT an acknowledgement.
  storage::ArmDiskFullForTesting(0);
  Result<net::QueryResponse> created = client.Execute(kViewQuery);
  ASSERT_TRUE(created.ok()) << created.status();
  EXPECT_TRUE(created->status.IsResourceExhausted()) << created->status;
  EXPECT_NE(created->status.message().find("write-through"),
            std::string::npos)
      << created->status;

  // The server is now read-only: frames say so...
  EXPECT_TRUE(server.read_only());
  EXPECT_EQ(client.last_server_health(), net::HealthState::kReadOnly);

  // ...reads keep serving...
  Result<net::QueryResponse> read = client.Execute(kReadQuery);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_TRUE(read->status.ok()) << read->status;

  // ...and further writes shed BEFORE evaluation with the typed
  // kUnavailable + the configured retry-after hint.
  Result<net::QueryResponse> shed = client.Execute(
      "CREATE VIEW Second AS SUBCLASS OF Object_in_Room "
      "SELECT O FROM Object_in_Room O");
  ASSERT_TRUE(shed.ok()) << shed.status();
  EXPECT_TRUE(shed->status.IsUnavailable()) << shed->status;
  EXPECT_NE(shed->status.message().find("read-only"), std::string::npos);
  EXPECT_EQ(shed->status.retry_after_ms(), 321u);

  // HEALTH reports the degraded state with the cause.
  net::HealthInfo info;
  ASSERT_TRUE(client.Health(&info).ok());
  EXPECT_EQ(info.state, net::HealthState::kReadOnly);
  EXPECT_TRUE(info.read_only);
  EXPECT_TRUE(info.store_backed);
  // The detail names the poisoning cause, so an operator reading a
  // HEALTH probe knows WHY the server degraded.
  EXPECT_NE(info.detail.find("no space left"), std::string::npos)
      << info.detail;

  server.Stop();
  storage::ArmDiskFullForTesting(-1);
  (void)store->Close();

  // The acknowledged prefix — the seed, NOT the failed CREATE — is what
  // reopen recovers: the client was never told the view existed.
  auto reopened = PagedStore::Open({.path = path}).value();
  Database recovered;
  ASSERT_TRUE(reopened->ExportToDatabase(&recovered).ok());
  Database replica = MakeOfficeDb();
  auto recovered_dump = Serializer::DumpDatabase(recovered);
  auto replica_dump = Serializer::DumpDatabase(replica);
  ASSERT_TRUE(recovered_dump.ok());
  ASSERT_TRUE(replica_dump.ok());
  EXPECT_EQ(*recovered_dump, *replica_dump);
  ASSERT_TRUE(reopened->Close().ok());
}

TEST_F(ServerStoreTest, BootOnPoisonedStoreStartsReadOnly) {
  const std::string path = FreshStorePath("srv_store_boot_ro.lyricpg");
  auto store = PagedStore::Open({.path = path}).value();
  Database db = MakeOfficeDb();
  ASSERT_TRUE(store->ImportDatabase(db).ok());

  // Poison the store before the server boots (failed commit).
  storage::ArmDiskFullForTesting(0);
  ASSERT_TRUE(store->Put("x", "y").ok());
  ASSERT_FALSE(store->Commit().ok());
  storage::ArmDiskFullForTesting(-1);
  ASSERT_FALSE(store->poison_status().ok());

  net::ServerOptions sopts;
  sopts.store = store.get();
  net::Server server(&db, sopts);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(server.read_only());

  net::Client client(PlainClient(server.port()));
  Result<net::QueryResponse> shed = client.Execute(kViewQuery);
  ASSERT_TRUE(shed.ok()) << shed.status();
  EXPECT_TRUE(shed->status.IsUnavailable()) << shed->status;
  Result<net::QueryResponse> read = client.Execute(kReadQuery);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_TRUE(read->status.ok()) << read->status;

  server.Stop();
  (void)store->Close();
}

TEST_F(ServerStoreTest, HealthProbeReportsRecoveryAndLoad) {
  const std::string seed_path =
      FreshStorePath("srv_store_health_seed.lyricpg");
  const std::string path = FreshStorePath("srv_store_health.lyricpg");

  // Create some WAL history so reopen has transactions to replay: the
  // seed plus one schema mutation written through the way a live server
  // does it.
  {
    auto store = PagedStore::Open({.path = seed_path}).value();
    Database db = MakeOfficeDb();
    ASSERT_TRUE(store->ImportDatabase(db).ok());
    {
      Evaluator ev(&db, EvalOptions{});
      auto res = ev.Execute(kViewQuery);
      ASSERT_TRUE(res.ok()) << res.status();
    }
    ASSERT_TRUE(store->ApplyChanges(db, db.TakeChanges()).ok());
    // The crash image: both files as they stand before any checkpoint,
    // i.e. what an unclean exit leaves behind. Close then checkpoints
    // only the original.
    for (const auto& [from, to] :
         {std::pair{seed_path, path},
          std::pair{PagedStore::WalPathFor(seed_path),
                    PagedStore::WalPathFor(path)}}) {
      std::error_code ec;
      std::filesystem::copy_file(from, to, ec);
      ASSERT_FALSE(ec) << from << ": " << ec.message();
    }
    ASSERT_TRUE(store->Close().ok());
  }

  auto store = PagedStore::Open({.path = path}).value();
  Database db;
  ASSERT_TRUE(store->ExportToDatabase(&db).ok());

  net::ServerOptions sopts;
  sopts.store = store.get();
  net::Server server(&db, sopts);
  ASSERT_TRUE(server.Start().ok());

  net::Client client(PlainClient(server.port()));
  net::HealthInfo info;
  ASSERT_TRUE(client.Health(&info).ok());
  EXPECT_EQ(info.state, net::HealthState::kServing);
  EXPECT_TRUE(info.store_backed);
  EXPECT_FALSE(info.read_only);
  EXPECT_FALSE(info.draining);
  EXPECT_EQ(info.recovered_txns, store->recovery().committed_txns);
  EXPECT_GT(info.recovered_txns, 0u) << "reopen replayed no WAL";
  EXPECT_EQ(info.recovered_images, store->recovery().images_applied);
  EXPECT_GE(info.sessions_opened, 1u);
  EXPECT_EQ(info.in_flight_queries, 0u);

  // The probe's own frame carries the health byte too.
  EXPECT_EQ(client.last_server_health(), net::HealthState::kServing);

  server.Stop();
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(ServerStoreTest, ReadersScanTheParentExtentWhileViewsCommit) {
  // Readers evaluate FROM over Object_in_Room, the parent of every view,
  // while one writer creates views: each CREATE updates the class extents
  // and hands its change set to the store under the exclusive gate, and
  // the readers use the extents under the shared gate. CI runs this under
  // TSan. A view over stored objects adds instance-of facts only, so the
  // readers' answers never change.
  const std::string path = FreshStorePath("srv_store_readers.lyricpg");
  auto store = PagedStore::Open({.path = path}).value();
  Database db = MakeOfficeDb();
  ASSERT_TRUE(office::AddScaledDesks(&db, 12, 7).ok());
  ASSERT_TRUE(store->ImportDatabase(db).ok());

  net::ServerOptions sopts;
  sopts.store = store.get();
  net::Server server(&db, sopts);
  ASSERT_TRUE(server.Start().ok());

  const std::vector<std::string> reads = {
      kReadQuery,
      "SELECT O FROM Object_in_Room O "
      "WHERE O.location[L] and L(x, y) |= x <= 12"};
  std::vector<std::string> expected;
  {
    net::Client client(PlainClient(server.port()));
    for (const std::string& q : reads) {
      Result<net::QueryResponse> resp = client.Execute(q);
      ASSERT_TRUE(resp.ok() && resp->status.ok()) << q;
      ASSERT_GT(resp->row_count, 0u) << q;
      expected.push_back(resp->Fingerprint());
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<int> wrong{0};
  std::atomic<uint64_t> answered{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      net::Client client(PlainClient(server.port()));
      for (size_t i = r; !stop.load(std::memory_order_relaxed); ++i) {
        Result<net::QueryResponse> resp =
            client.Execute(reads[i % reads.size()]);
        if (!resp.ok() || !resp->status.ok() ||
            resp->Fingerprint() != expected[i % reads.size()]) {
          wrong.fetch_add(1);
          return;
        }
        answered.fetch_add(1);
      }
    });
  }
  net::Client writer(PlainClient(server.port()));
  for (int v = 0; v < 20; ++v) {
    Result<net::QueryResponse> resp = writer.Execute(
        "CREATE VIEW Zone_" + std::to_string(v) +
        " AS SUBCLASS OF Object_in_Room SELECT O FROM Object_in_Room O "
        "WHERE O.location[L] and L(x, y) |= x <= " +
        std::to_string(4 + v % 12));
    ASSERT_TRUE(resp.ok()) << resp.status();
    ASSERT_TRUE(resp->status.ok()) << resp->status;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_GT(answered.load(), 0u);
  server.Stop();
  ASSERT_TRUE(store->Close().ok());

  // Every acknowledged view is in the store, record for record.
  auto reopened = PagedStore::Open({.path = path}).value();
  Database recovered;
  ASSERT_TRUE(reopened->ExportToDatabase(&recovered).ok());
  auto recovered_dump = Serializer::DumpDatabase(recovered);
  auto live_dump = Serializer::DumpDatabase(db);
  ASSERT_TRUE(recovered_dump.ok());
  ASSERT_TRUE(live_dump.ok());
  EXPECT_EQ(*recovered_dump, *live_dump);
  ASSERT_TRUE(reopened->Close().ok());
}

// Waits until the server has accepted `n` queries that are still
// unanswered.
bool WaitForInFlight(const net::Server& server, uint64_t n) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.in_flight_queries() < n) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// A CREATE VIEW whose WAL fsync is held, and a read issued after its
// install: the write's client and the read's client both wait, a HEALTH
// probe does not. The held sync comes after the install and the append,
// so the read starts after the view is installed.
class HeldFsync {
 public:
  HeldFsync(uint16_t port, const std::string& store_path)
      : writer_client_(PlainClient(port)), reader_client_(PlainClient(port)) {
    storage::HoldSyncsForTesting();
    writer_ = std::thread([this] {
      created_ = writer_client_.Execute(kViewQuery);
      created_done_.store(true);
    });
    held_path_ = storage::WaitForHeldSyncForTesting(10000);
    EXPECT_EQ(held_path_, PagedStore::WalPathFor(store_path));
    reader_ = std::thread([this] {
      read_ = reader_client_.Execute(kViewReadQuery);
      read_done_.store(true);
    });
  }
  ~HeldFsync() { Release(Status::OK()); }

  bool answered_any() const { return created_done_ || read_done_; }
  void Release(const Status& outcome) {
    if (!writer_.joinable()) return;
    storage::ReleaseSyncsForTesting(outcome);
    writer_.join();
    reader_.join();
  }
  const Result<net::QueryResponse>& created() const { return created_; }
  const Result<net::QueryResponse>& read() const { return read_; }

 private:
  net::Client writer_client_;
  net::Client reader_client_;
  std::string held_path_;
  std::thread writer_;
  std::thread reader_;
  std::atomic<bool> created_done_{false};
  std::atomic<bool> read_done_{false};
  Result<net::QueryResponse> created_{Status::Internal("not answered")};
  Result<net::QueryResponse> read_{Status::Internal("not answered")};
};

TEST_F(ServerStoreTest, NothingIsAnsweredBeforeWhatItSawIsDurable) {
  const std::string path = FreshStorePath("srv_store_held_fsync.lyricpg");
  auto store = PagedStore::Open({.path = path}).value();
  Database db = MakeOfficeDb();
  ASSERT_TRUE(store->ImportDatabase(db).ok());
  net::ServerOptions sopts;
  sopts.store = store.get();
  net::Server server(&db, sopts);
  ASSERT_TRUE(server.Start().ok());

  {
    HeldFsync held(server.port(), path);
    ASSERT_TRUE(WaitForInFlight(server, 2));
    // A probe still answers while the fsync is held...
    net::Client probe(PlainClient(server.port()));
    net::HealthInfo info;
    ASSERT_TRUE(probe.Health(&info).ok());
    EXPECT_EQ(info.state, net::HealthState::kServing);
    EXPECT_EQ(info.in_flight_queries, 2u);
    // ...but neither the write nor the read that saw its install does.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    EXPECT_FALSE(held.answered_any());

    held.Release(Status::OK());
    ASSERT_TRUE(held.created().ok()) << held.created().status();
    EXPECT_TRUE(held.created()->status.ok()) << held.created()->status;
    ASSERT_TRUE(held.read().ok()) << held.read().status();
    ASSERT_TRUE(held.read()->status.ok()) << held.read()->status;
    // The read's rows are the view's.
    Database replica = MakeOfficeDb();
    Evaluator ev(&replica, EvalOptions{});
    ASSERT_TRUE(ev.Execute(kViewQuery).ok());
    Result<ResultSet> view_rows = ev.Execute(kViewReadQuery);
    ASSERT_TRUE(view_rows.ok()) << view_rows.status();
    ASSERT_GT(view_rows->size(), 0u);
    EXPECT_EQ(held.read()->row_count, view_rows->size());
    EXPECT_EQ(held.read()->rendered, view_rows->ToString());
  }
  EXPECT_FALSE(server.read_only());
  server.Stop();
  ASSERT_TRUE(store->Close().ok());

  // The reopened store holds the view.
  auto reopened = PagedStore::Open({.path = path}).value();
  Database recovered;
  ASSERT_TRUE(reopened->ExportToDatabase(&recovered).ok());
  EXPECT_TRUE(recovered.schema().HasClass("Near_Wall"));
  ASSERT_TRUE(reopened->Close().ok());
}

TEST_F(ServerStoreTest, FailedFsyncAnswersTheWriterTypedAndTheReadDegraded) {
  const std::string path = FreshStorePath("srv_store_failed_fsync.lyricpg");
  auto store = PagedStore::Open({.path = path}).value();
  Database db = MakeOfficeDb();
  ASSERT_TRUE(store->ImportDatabase(db).ok());
  net::ServerOptions sopts;
  sopts.store = store.get();
  net::Server server(&db, sopts);
  ASSERT_TRUE(server.Start().ok());

  {
    HeldFsync held(server.port(), path);
    ASSERT_TRUE(WaitForInFlight(server, 2));
    held.Release(Status::Internal("fsync failed: injected EIO"));
    // The writer gets the typed storage error, not an ack...
    ASSERT_TRUE(held.created().ok()) << held.created().status();
    EXPECT_EQ(held.created()->status.code(), StatusCode::kInternal)
        << held.created()->status;
    EXPECT_NE(held.created()->status.message().find("write-through"),
              std::string::npos)
        << held.created()->status;
    // ...and the read is answered from memory, as degraded mode answers
    // every read: the quarantined view included.
    ASSERT_TRUE(held.read().ok()) << held.read().status();
    EXPECT_TRUE(held.read()->status.ok()) << held.read()->status;
    EXPECT_GT(held.read()->row_count, 0u);
  }
  EXPECT_TRUE(server.read_only());
  net::Client client(PlainClient(server.port()));
  Result<net::QueryResponse> read = client.Execute(kViewReadQuery);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_TRUE(read->status.ok()) << read->status;
  EXPECT_EQ(client.last_server_health(), net::HealthState::kReadOnly);
  Result<net::QueryResponse> shed = client.Execute(
      "CREATE VIEW Second AS SUBCLASS OF Object_in_Room "
      "SELECT O FROM Object_in_Room O");
  ASSERT_TRUE(shed.ok()) << shed.status();
  EXPECT_TRUE(shed->status.IsUnavailable()) << shed->status;
  net::HealthInfo info;
  ASSERT_TRUE(client.Health(&info).ok());
  EXPECT_NE(info.detail.find("injected EIO"), std::string::npos)
      << info.detail;
  server.Stop();
  EXPECT_FALSE(store->Close().ok());
}

// Same ENOSPC story as the gate test at the top of this file, but armed
// in process so it runs (deterministically) in every invocation, env or
// not.
TEST_F(ServerStoreTest, EnospcSurfacesThroughServerTyped) {
  const std::string path = FreshStorePath("srv_store_enospc.lyricpg");
  auto store = PagedStore::Open({.path = path}).value();
  Database db = MakeOfficeDb();
  ASSERT_TRUE(store->ImportDatabase(db).ok());

  net::ServerOptions sopts;
  sopts.store = store.get();
  net::Server server(&db, sopts);
  ASSERT_TRUE(server.Start().ok());
  net::Client client(PlainClient(server.port()));

  storage::ArmDiskFullForTesting(64);  // a commit needs far more
  Result<net::QueryResponse> created = client.Execute(kViewQuery);
  ASSERT_TRUE(created.ok()) << created.status();
  EXPECT_TRUE(created->status.IsResourceExhausted()) << created->status;
  storage::ArmDiskFullForTesting(-1);

  EXPECT_TRUE(server.read_only());
  server.Stop();
  (void)store->Close();
}

}  // namespace
}  // namespace lyric
