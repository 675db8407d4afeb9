// util/sync.h contract tests: scoped guards exclude each other, the
// condition variable keeps the mutex held across waits, and — the part
// no other test can cover — the runtime lock-rank checker aborts
// deterministically on hierarchy violations (death tests, active
// whenever the build defines LYRIC_SYNC_RANK_CHECK, which is the
// default via -DLYRIC_RANK_CHECK=ON).

#include "util/sync.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace lyric {
namespace sync {
namespace {

TEST(SyncMutexTest, MutexLockExcludesConcurrentCriticalSections) {
  Mutex mu(LockRank::kUnranked, "counter");
  int counter = 0;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&mu, &counter] {
      for (int i = 0; i < kIncrements; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (auto& th : threads) th.join();
  MutexLock lock(mu);
  EXPECT_EQ(counter, kThreads * kIncrements);
}

TEST(SyncMutexTest, TryLockFailsWhileHeldElsewhere) {
  Mutex mu;
  mu.Lock();
  std::atomic<bool> acquired{true};
  // TryLock from another thread: the same-thread case would be a
  // recursion abort under the rank checker, which is its own test below.
  std::thread probe([&mu, &acquired] { acquired = mu.TryLock(); });
  probe.join();
  EXPECT_FALSE(acquired.load());
  mu.Unlock();
  EXPECT_TRUE(mu.TryLock());
  mu.Unlock();
}

TEST(SyncMutexTest, RankAndNameAccessors) {
  Mutex mu(LockRank::kScheduler, "test_sched");
  EXPECT_EQ(mu.rank(), static_cast<int>(LockRank::kScheduler));
  EXPECT_STREQ(mu.name(), "test_sched");
}

TEST(SyncSharedMutexTest, ReadersShareWritersExclude) {
  SharedMutex mu(LockRank::kUnranked, "rw");
  int value = 0;
  std::atomic<int> concurrent_readers{0};
  std::atomic<int> max_concurrent_readers{0};
  {
    WriterMutexLock lock(mu);
    value = 42;
  }
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        ReaderMutexLock lock(mu);
        int now = concurrent_readers.fetch_add(1) + 1;
        int seen = max_concurrent_readers.load();
        while (now > seen &&
               !max_concurrent_readers.compare_exchange_weak(seen, now)) {
        }
        EXPECT_EQ(value, 42);  // No torn writes while readers are in.
        concurrent_readers.fetch_sub(1);
      }
    });
  }
  for (auto& th : readers) th.join();
  // Not guaranteed by the standard, but with 4 spinning readers over 200
  // iterations overlap is effectively certain; a regression to exclusive
  // locking would show max == 1.
  EXPECT_GE(max_concurrent_readers.load(), 1);
}

TEST(SyncCondVarTest, WaitReleasesAndReacquiresTheMutex) {
  Mutex mu(LockRank::kUnranked, "cv_mu");
  CondVar cv;
  bool ready = false;
  bool consumed = false;
  std::thread consumer([&] {
    MutexLock lock(mu);
    while (!ready) cv.Wait(mu);
    // The wait re-acquired the lock: this write is protected.
    consumed = true;
  });
  {
    MutexLock lock(mu);
    ready = true;
  }
  cv.NotifyOne();
  consumer.join();
  MutexLock lock(mu);
  EXPECT_TRUE(consumed);
}

TEST(SyncCondVarTest, WaitUntilReportsTimeout) {
  Mutex mu(LockRank::kUnranked, "cv_mu");
  CondVar cv;
  MutexLock lock(mu);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
  EXPECT_TRUE(cv.WaitUntil(mu, deadline));  // Nobody notifies: timeout.
}

TEST(SyncCondVarTest, WaitForReportsTimeout) {
  Mutex mu(LockRank::kUnranked, "cv_mu");
  CondVar cv;
  MutexLock lock(mu);
  EXPECT_TRUE(cv.WaitFor(mu, std::chrono::milliseconds(5)));
}

TEST(SyncCondVarTest, NotifyAllWakesEveryWaiter) {
  Mutex mu(LockRank::kUnranked, "cv_mu");
  CondVar cv;
  bool go = false;
  std::atomic<int> woke{0};
  std::vector<std::thread> waiters;
  for (int t = 0; t < 4; ++t) {
    waiters.emplace_back([&] {
      MutexLock lock(mu);
      while (!go) cv.Wait(mu);
      woke.fetch_add(1);
    });
  }
  {
    MutexLock lock(mu);
    go = true;
  }
  cv.NotifyAll();
  for (auto& th : waiters) th.join();
  EXPECT_EQ(woke.load(), 4);
}

#ifdef LYRIC_SYNC_RANK_CHECK

using SyncRankDeathTest = ::testing::Test;

TEST(SyncRankDeathTest, LockOrderInversionAborts) {
  // The documented hierarchy is scheduler(10) -> ... -> obs registry(50);
  // acquiring the scheduler-ranked lock while holding the registry-ranked
  // one is the seeded inversion the checker must catch.
  Mutex registry_mu(LockRank::kObsRegistry, "seeded_registry");
  Mutex scheduler_mu(LockRank::kScheduler, "seeded_scheduler");
  EXPECT_DEATH(
      {
        MutexLock outer(registry_mu);
        MutexLock inner(scheduler_mu);
      },
      "lock-order inversion");
}

TEST(SyncRankDeathTest, SameRankNestingAborts) {
  // Equal ranks are not orderable either (the check is strictly-greater):
  // two cache shards must never nest.
  Mutex shard_a(LockRank::kCacheShard, "shard_a");
  Mutex shard_b(LockRank::kCacheShard, "shard_b");
  EXPECT_DEATH(
      {
        MutexLock outer(shard_a);
        MutexLock inner(shard_b);
      },
      "lock-order inversion");
}

TEST(SyncRankDeathTest, RecursiveAcquisitionAborts) {
  // Recursive std::mutex locking is UB; the checker turns it into a
  // deterministic abort. Unranked locks participate too.
  Mutex mu(LockRank::kUnranked, "recursive");
  EXPECT_DEATH(
      {
        MutexLock outer(mu);
        MutexLock inner(mu);
      },
      "recursive lock acquisition");
}

TEST(SyncRankDeathTest, AssertHeldAbortsWhenNotHeld) {
  Mutex mu(LockRank::kUnranked, "unheld");
  EXPECT_DEATH(mu.AssertHeld(), "AssertHeld failed");
}

TEST(SyncRankDeathTest, CorrectOrderDoesNotAbort) {
  // Descending the documented hierarchy is legal: scheduler -> cache
  // shard -> registry.
  Mutex sched(LockRank::kScheduler, "ok_sched");
  Mutex shard(LockRank::kCacheShard, "ok_shard");
  Mutex reg(LockRank::kObsRegistry, "ok_reg");
  MutexLock l1(sched);
  MutexLock l2(shard);
  MutexLock l3(reg);
  reg.AssertHeld();
  sched.AssertHeld();
}

TEST(SyncRankDeathTest, UnrankedLocksAreOrderExempt) {
  // Unranked locks may nest under and over ranked ones (only recursion
  // on the same object is checked), so test-local locks never fight the
  // production hierarchy.
  Mutex ranked(LockRank::kObsRegistry, "ranked");
  Mutex unranked_a(LockRank::kUnranked, "local_a");
  Mutex unranked_b(LockRank::kUnranked, "local_b");
  MutexLock l1(unranked_a);
  MutexLock l2(ranked);
  MutexLock l3(unranked_b);
}

TEST(SyncRankDeathTest, CondVarWaitKeepsLockOnHeldStack) {
  // During a timed wait the mutex entry stays on the held stack: from
  // the caller's perspective the lock is held at every observable point.
  Mutex mu(LockRank::kQueryLog, "wait_mu");
  CondVar cv;
  MutexLock lock(mu);
  cv.WaitFor(mu, std::chrono::milliseconds(1));
  mu.AssertHeld();
}

TEST(SyncRankDeathTest, ReleaseUnblocksTheRank) {
  // After an inner scope releases, the same rank is acquirable again —
  // the stack pops correctly.
  Mutex reg(LockRank::kObsRegistry, "reg");
  Mutex log(LockRank::kQueryLog, "log");
  {
    MutexLock l1(reg);
    MutexLock l2(log);
  }
  {
    MutexLock l1(reg);
    MutexLock l2(log);
  }
}

TEST(SyncRankDeathTest, SharedMutexParticipatesInRankChecking) {
  SharedMutex interner(LockRank::kVarInterner, "interner");
  Mutex fault_cfg(LockRank::kFaultConfig, "fault_cfg");
  Mutex shard(LockRank::kCacheShard, "shard");
  {
    // Legal: shard(35) -> shared interner(80) -> fault config(90).
    MutexLock l1(shard);
    ReaderMutexLock l2(interner);
    MutexLock l3(fault_cfg);
  }
  EXPECT_DEATH(
      {
        WriterMutexLock outer(interner);
        MutexLock inner(shard);
      },
      "lock-order inversion");
}

#endif  // LYRIC_SYNC_RANK_CHECK

}  // namespace
}  // namespace sync
}  // namespace lyric
