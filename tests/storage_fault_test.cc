// Satellite: injected storage I/O failures (LYRIC_FAULT=storage:...)
// must surface as typed Status errors — never crashes, never silent
// corruption — and a store poisoned by a failed commit must recover its
// last durable state on reopen.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <map>
#include <string>

#include "storage/file_io.h"
#include "storage/paged_store.h"
#include "util/fault.h"

namespace lyric {
namespace storage {
namespace {

std::string FreshPath(const std::string& name) {
  std::string path = ::testing::TempDir() + "/" + name;
  ::unlink(path.c_str());
  ::unlink(PagedStore::WalPathFor(path).c_str());
  return path;
}

class StorageFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(fault::Configure(""));
    ArmDiskFull(-1);
  }
  void TearDown() override {
    ASSERT_TRUE(fault::Configure(""));
    ArmDiskFull(-1);
  }
};

TEST_F(StorageFaultTest, InjectedIoFailuresAreTypedUnavailable) {
  ASSERT_TRUE(fault::Configure("storage:1.0:7"));
  File f = File::OpenReadWrite(FreshPath("sf_io.bin")).value();
  char buf[16] = {};
  Status w = f.WriteAt(0, buf, sizeof buf);
  EXPECT_TRUE(w.IsUnavailable()) << w;
  EXPECT_NE(w.message().find("injected fault: storage"), std::string::npos);
  Status s = f.Sync();
  EXPECT_TRUE(s.IsUnavailable()) << s;
  auto r = f.ReadAtMost(0, buf, sizeof buf);
  EXPECT_TRUE(r.status().IsUnavailable()) << r.status();
}

TEST_F(StorageFaultTest, FailedCommitPoisonsButReopenRecovers) {
  std::string path = FreshPath("sf_poison.lyricpg");
  {
    auto store = PagedStore::Open({.path = path}).value();
    ASSERT_TRUE(store->Put("committed", "before-fault").ok());
    ASSERT_TRUE(store->Commit().ok());
    ASSERT_TRUE(store->Put("lost", "after-fault").ok());

    // Every I/O now fails: the commit must return a typed error...
    ASSERT_TRUE(fault::Configure("storage:1.0:21"));
    Status c = store->Commit();
    ASSERT_FALSE(c.ok());
    EXPECT_TRUE(c.IsUnavailable()) << c;

    // ...and the store is poisoned fail-stop: every later call reports
    // the original failure rather than limping on half-applied state.
    Status p = store->Put("more", "x");
    EXPECT_FALSE(p.ok());
    EXPECT_TRUE(store->Get("committed").status().IsUnavailable());
    fault::Configure("");
    // Close is best-effort on a poisoned store; ignore its status.
    (void)store->Close();
  }
  // Reopen recovers exactly the durable prefix: the committed record is
  // there, the in-flight one is gone.
  auto store = PagedStore::Open({.path = path}).value();
  EXPECT_EQ(store->Get("committed").value(), "before-fault");
  EXPECT_TRUE(store->Get("lost").status().IsNotFound());
  ASSERT_TRUE(store->Close().ok());
}

TEST_F(StorageFaultTest, ProbabilisticFaultsNeverCorrupt) {
  // Hammer the store with ~20% I/O failures while armed. Any individual
  // op may fail (typed); whenever the store poisons, disarm, reopen
  // (recovery itself runs clean — a crashed box comes back with a
  // healthy disk), re-arm, and continue. At the end the surviving store
  // must hold, for every oracle key, the oracle value or a provably
  // newer one (an injected fsync-fault can strike after the kernel
  // already persisted the commit, so "newer" is legal; "older" or
  // garbage is corruption).
  std::string path = FreshPath("sf_hammer.lyricpg");
  std::map<std::string, std::string> oracle;   // committed state
  std::map<std::string, std::string> pending;  // since last commit
  int reopens = 0;

  auto store = PagedStore::Open({.path = path}).value();
  ASSERT_TRUE(fault::Configure("storage:0.2:1234"));

  auto reopen = [&] {
    fault::Configure("");
    (void)store->Close();
    pending.clear();
    auto reopened = PagedStore::Open({.path = path});
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    store = std::move(*reopened);
    ++reopens;
    ASSERT_TRUE(fault::Configure(
        "storage:0.2:" + std::to_string(1234 + reopens)));
  };

  for (int i = 0; i < 300; ++i) {
    std::string k = "k" + std::to_string(i % 40);
    std::string v = "v" + std::to_string(i);
    Status st = store->Put(k, v);
    if (st.ok()) {
      pending[k] = v;
      if (i % 7 == 0) {
        Status c = store->Commit();
        if (c.ok()) {
          for (auto& [pk, pv] : pending) oracle[pk] = pv;
          pending.clear();
        }
      }
    }
    auto probe = store->Get(k);
    if (!probe.ok() && !probe.status().IsNotFound()) {
      reopen();
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  fault::Configure("");
  (void)store->Close();

  auto final_store = PagedStore::Open({.path = path}).value();
  for (const auto& [k, v] : oracle) {
    auto got = final_store->Get(k);
    ASSERT_TRUE(got.ok()) << k << ": " << got.status();
    // v is "v<i>" where i % 40 identifies the key; a legal recovered
    // value is any later write of the SAME key.
    int got_n = std::atoi(got->c_str() + 1);
    int want_n = std::atoi(v.c_str() + 1);
    int key_n = std::atoi(k.c_str() + 1);
    EXPECT_EQ((*got)[0], 'v') << k << " holds garbage: " << *got;
    EXPECT_GE(got_n, want_n) << k << " lost a committed write";
    EXPECT_EQ(got_n % 40, key_n) << k << " holds another key's value";
  }
  ASSERT_TRUE(final_store->Close().ok());
  SUCCEED() << "survived with " << reopens << " reopens";
}

TEST_F(StorageFaultTest, DiskFullFailsWholeAndSticks) {
  // A budget of 8 bytes: a 16-byte write must fail WHOLE (a full disk
  // never leaves a torn record), and every write after it — even one
  // that would fit the original budget — keeps failing, like a
  // genuinely full filesystem.
  File f = File::OpenReadWrite(FreshPath("sf_enospc_raw.bin")).value();
  ArmDiskFull(8);
  char buf[16] = {};
  Status w1 = f.WriteAt(0, buf, sizeof buf);
  EXPECT_TRUE(w1.IsResourceExhausted()) << w1;
  EXPECT_NE(w1.message().find("no space left"), std::string::npos);
  EXPECT_EQ(f.Size().value(), 0u) << "a failed ENOSPC write tore bytes";
  Status w2 = f.WriteAt(0, buf, 1);
  EXPECT_TRUE(w2.IsResourceExhausted()) << "ENOSPC was not sticky: " << w2;
  // "Freeing space" (disarming) makes writes work again.
  ArmDiskFull(-1);
  EXPECT_TRUE(f.WriteAt(0, buf, sizeof buf).ok());
}

TEST_F(StorageFaultTest, DiskFullCommitPoisonsButReopenRecovers) {
  std::string path = FreshPath("sf_enospc.lyricpg");
  {
    auto store = PagedStore::Open({.path = path}).value();
    ASSERT_TRUE(store->Put("committed", "fits").ok());
    ASSERT_TRUE(store->Commit().ok());
    ASSERT_TRUE(store->Put("lost", "does-not-fit").ok());

    // The disk fills up: the commit must surface the typed
    // kResourceExhausted (operators alert on it differently than on
    // kUnavailable)...
    ArmDiskFull(0);
    Status c = store->Commit();
    ASSERT_FALSE(c.ok());
    EXPECT_TRUE(c.IsResourceExhausted()) << c;

    // ...and poison fail-stop like any failed commit.
    EXPECT_FALSE(store->Put("more", "x").ok());
    EXPECT_TRUE(store->poison_status().IsResourceExhausted());
    ArmDiskFull(-1);
    (void)store->Close();
  }
  // Space freed, reopen: exactly the durable prefix is back.
  auto store = PagedStore::Open({.path = path}).value();
  EXPECT_EQ(store->Get("committed").value(), "fits");
  EXPECT_TRUE(store->Get("lost").status().IsNotFound());
  ASSERT_TRUE(store->Close().ok());
}

}  // namespace
}  // namespace storage
}  // namespace lyric
