// QueryScheduler unit tests: the admission state machine (admit / queue /
// shed) exercised deterministically on private scheduler
// instances, plus the RetryPolicy backoff contract. Threaded staging uses
// WaitForWaiters so grant ordering is observed, never raced.

#include "exec/scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <thread>
#include <vector>

#include "util/fault.h"
#include "util/sync.h"

namespace lyric {
namespace exec {
namespace {

AdmissionRequest Req(std::optional<uint64_t> deadline_ms = std::nullopt,
                     uint64_t memory = 0) {
  AdmissionRequest r;
  r.deadline_ms = deadline_ms;
  r.memory_budget = memory;
  return r;
}

TEST(SchedulerTest, UnlimitedByDefaultAdmitsEverythingDirectly) {
  QueryScheduler sched;
  std::vector<AdmissionTicket> tickets;
  for (int i = 0; i < 32; ++i) {
    auto t = sched.Admit(Req());
    ASSERT_TRUE(t.ok()) << t.status();
    EXPECT_TRUE(t->admitted());
    EXPECT_FALSE(t->queued());
    tickets.push_back(std::move(*t));
  }
  SchedulerStats stats = sched.stats();
  EXPECT_EQ(stats.admitted, 32u);
  EXPECT_EQ(stats.active, 32u);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.shed, 0u);
  tickets.clear();
  EXPECT_EQ(sched.stats().active, 0u);
}

TEST(SchedulerTest, TicketReleaseReturnsSlotAndLedger) {
  SchedulerLimits limits;
  limits.max_concurrent = 1;
  limits.max_total_memory = 100;
  QueryScheduler sched(limits);
  {
    auto t = sched.Admit(Req(std::nullopt, 80));
    ASSERT_TRUE(t.ok());
    EXPECT_EQ(sched.stats().active, 1u);
    EXPECT_EQ(sched.stats().reserved_memory, 80u);
    t->Release();
    EXPECT_EQ(sched.stats().active, 0u);
    EXPECT_EQ(sched.stats().reserved_memory, 0u);
    t->Release();  // Idempotent.
    EXPECT_EQ(sched.stats().active, 0u);
  }
  // The slot freed by Release is usable again.
  auto again = sched.Admit(Req(std::nullopt, 100));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(sched.stats().reserved_memory, 100u);
}

TEST(SchedulerTest, OversizedBudgetIsPermanentlyRejected) {
  SchedulerLimits limits;
  limits.max_total_memory = 1000;
  QueryScheduler sched(limits);
  auto t = sched.Admit(Req(std::nullopt, 1001));
  ASSERT_FALSE(t.ok());
  // Could never fit: permanent kResourceExhausted, not a retryable shed.
  EXPECT_TRUE(t.status().IsResourceExhausted()) << t.status();
  EXPECT_FALSE(t.status().IsUnavailable());
  EXPECT_EQ(sched.stats().shed, 0u);
  // Exactly the ledger is fine.
  EXPECT_TRUE(sched.Admit(Req(std::nullopt, 1000)).ok());
}

TEST(SchedulerTest, QueueFullShedsWithRetryAfterHint) {
  SchedulerLimits limits;
  limits.max_concurrent = 1;
  limits.queue_capacity = 0;  // No waiting room at all.
  QueryScheduler sched(limits);
  auto held = sched.Admit(Req());
  ASSERT_TRUE(held.ok());
  auto shed = sched.Admit(Req());
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsUnavailable()) << shed.status();
  EXPECT_GT(shed.status().retry_after_ms(), 0u);
  EXPECT_NE(shed.status().message().find("queue full"), std::string::npos);
  SchedulerStats stats = sched.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.expired, 0u);
}

TEST(SchedulerTest, QueueTimeoutShedsAsExpired) {
  SchedulerLimits limits;
  limits.max_concurrent = 1;
  limits.queue_timeout_ms = 20;
  QueryScheduler sched(limits);
  auto held = sched.Admit(Req());
  ASSERT_TRUE(held.ok());
  auto shed = sched.Admit(Req());
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsUnavailable()) << shed.status();
  EXPECT_GT(shed.status().retry_after_ms(), 0u);
  EXPECT_NE(shed.status().message().find("timed out"), std::string::npos);
  SchedulerStats stats = sched.stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.waiting, 0u);  // The expired waiter removed itself.
}

TEST(SchedulerTest, DeclaredDeadlineExpiresWhileQueued) {
  SchedulerLimits limits;
  limits.max_concurrent = 1;
  QueryScheduler sched(limits);
  auto held = sched.Admit(Req());
  ASSERT_TRUE(held.ok());
  // 15ms declared deadline, slot never frees: shed by own deadline.
  auto shed = sched.Admit(Req(15));
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsUnavailable()) << shed.status();
  EXPECT_NE(shed.status().message().find("deadline expired"),
            std::string::npos);
  EXPECT_EQ(sched.stats().expired, 1u);
}

TEST(SchedulerTest, HugeDeclaredDeadlineWaitsForItsGrant) {
  // A declared deadline past what the clock can hold saturates to
  // "never": the arrival queues and waits for its grant instead of being
  // shed as expired on arrival.
  for (uint64_t ms :
       {uint64_t{1} << 62, std::numeric_limits<uint64_t>::max()}) {
    SchedulerLimits limits;
    limits.max_concurrent = 1;
    QueryScheduler sched(limits);
    auto held = sched.Admit(Req());
    ASSERT_TRUE(held.ok());
    std::atomic<bool> granted{false};
    std::thread waiter([&] {
      auto t = sched.Admit(Req(ms));
      EXPECT_TRUE(t.ok()) << t.status();
      granted.store(t.ok() && t->queued());
    });
    const bool queued = sched.WaitForWaiters(1, 1000);
    held->Release();
    waiter.join();
    EXPECT_TRUE(queued) << ms;
    EXPECT_TRUE(granted.load()) << ms;
    EXPECT_EQ(sched.stats().expired, 0u) << ms;
  }
}

TEST(SchedulerTest, QueueGrantsAreFifoWithinDeadline) {
  SchedulerLimits limits;
  limits.max_concurrent = 1;
  limits.queue_capacity = 8;
  QueryScheduler sched(limits);
  auto held = sched.Admit(Req());
  ASSERT_TRUE(held.ok());

  lyric::sync::Mutex mu;
  std::vector<int> grant_order;
  std::vector<std::thread> threads;
  // Stage waiters one at a time so arrival order (seq) is deterministic:
  // id 0 — no deadline (sorts last), id 1 — deadline 60s, id 2 — deadline
  // 60s (FIFO after id 1), id 3 — deadline 10s (earliest, granted first).
  const std::optional<uint64_t> deadlines[] = {std::nullopt, 60000, 60000,
                                               10000};
  for (int id = 0; id < 4; ++id) {
    threads.emplace_back([&sched, &mu, &grant_order, id, &deadlines] {
      auto t = sched.Admit(Req(deadlines[id]));
      ASSERT_TRUE(t.ok()) << t.status();
      EXPECT_TRUE(t->queued());
      lyric::sync::MutexLock lock(mu);
      grant_order.push_back(id);
      // Hold briefly so the next grant happens strictly after this record.
      // (Grants only occur on Release; ticket destruction below is that
      // release, after the order entry is committed.)
    });
    ASSERT_TRUE(sched.WaitForWaiters(static_cast<uint64_t>(id + 1), 5000));
  }
  held->Release();  // Start the cascade: one grant per release.
  for (auto& th : threads) th.join();
  EXPECT_EQ(grant_order, (std::vector<int>{3, 1, 2, 0}));
  SchedulerStats stats = sched.stats();
  EXPECT_EQ(stats.queued, 4u);
  EXPECT_EQ(stats.active, 0u);
  EXPECT_EQ(stats.waiting, 0u);
}

TEST(SchedulerTest, DirectGrantUnderLedgerPressureIsNotQueued) {
  SchedulerLimits limits;
  limits.max_total_memory = 1000;
  QueryScheduler sched(limits);
  auto a = sched.Admit(Req(std::nullopt, 600));  // 600/1000: over half.
  ASSERT_TRUE(a.ok());
  // The ledger is past half but still has room: a direct grant.
  auto b = sched.Admit(Req(std::nullopt, 100));
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(b->queued());
  EXPECT_EQ(b->queue_wait_ns(), 0u);
  EXPECT_EQ(sched.stats().queued, 0u);
  EXPECT_EQ(sched.stats().reserved_memory, 700u);
}

TEST(SchedulerTest, MemoryGateQueuesUntilLedgerDrains) {
  SchedulerLimits limits;
  limits.max_total_memory = 1000;
  QueryScheduler sched(limits);
  auto big = sched.Admit(Req(std::nullopt, 900));
  ASSERT_TRUE(big.ok());
  std::atomic<bool> granted{false};
  std::thread waiter([&] {
    auto t = sched.Admit(Req(std::nullopt, 500));
    ASSERT_TRUE(t.ok()) << t.status();
    EXPECT_EQ(sched.stats().reserved_memory, 500u);  // Ticket still held.
    granted.store(true);
  });
  ASSERT_TRUE(sched.WaitForWaiters(1, 5000));
  EXPECT_FALSE(granted.load());  // 900 + 500 > 1000: must wait.
  big->Release();
  waiter.join();
  EXPECT_TRUE(granted.load());
  EXPECT_EQ(sched.stats().reserved_memory, 0u);  // Ledger fully drained.
}

TEST(SchedulerTest, FaultSiteForcesShed) {
  ASSERT_TRUE(fault::Configure("scheduler:1.0"));
  QueryScheduler sched;  // No limits: would otherwise always admit.
  auto t = sched.Admit(Req());
  ASSERT_FALSE(t.ok());
  EXPECT_TRUE(t.status().IsUnavailable()) << t.status();
  EXPECT_NE(t.status().message().find("injected fault"), std::string::npos);
  ASSERT_TRUE(fault::Configure(""));
  EXPECT_TRUE(sched.Admit(Req()).ok());
}

TEST(SchedulerTest, ConfigureAppliesToFutureAdmissionsAndWakesQueue) {
  SchedulerLimits limits;
  limits.max_concurrent = 1;
  QueryScheduler sched(limits);
  auto held = sched.Admit(Req());
  ASSERT_TRUE(held.ok());
  std::atomic<bool> granted{false};
  std::thread waiter([&] {
    auto t = sched.Admit(Req());
    ASSERT_TRUE(t.ok()) << t.status();
    granted.store(true);
  });
  ASSERT_TRUE(sched.WaitForWaiters(1, 5000));
  EXPECT_FALSE(granted.load());
  // Raising the cap grants the queued waiter without any release.
  SchedulerLimits wider;
  wider.max_concurrent = 4;
  sched.Configure(wider);
  waiter.join();
  EXPECT_TRUE(granted.load());
  EXPECT_EQ(sched.limits().max_concurrent, 4u);
}

// -- RetryPolicy -----------------------------------------------------------

TEST(SchedulerTest, RetryPolicyOnlyRetriesUnavailable) {
  RetryPolicy policy;
  policy.max_retries = 3;
  Status shed = Status::Unavailable("queue full");
  EXPECT_TRUE(policy.ShouldRetry(shed, 0));
  EXPECT_TRUE(policy.ShouldRetry(shed, 2));
  EXPECT_FALSE(policy.ShouldRetry(shed, 3));  // Budget spent.
  EXPECT_FALSE(policy.ShouldRetry(Status::DeadlineExceeded("partial"), 0));
  EXPECT_FALSE(policy.ShouldRetry(Status::ResourceExhausted("budget"), 0));
  EXPECT_FALSE(policy.ShouldRetry(Status::Internal("bug"), 0));
  EXPECT_FALSE(policy.ShouldRetry(Status::OK(), 0));
  RetryPolicy off;  // Default: disabled.
  EXPECT_FALSE(off.ShouldRetry(shed, 0));
}

TEST(SchedulerTest, RetryPolicySpecParse) {
  // LYRIC_RETRY=retries[:base_ms[:seed]].
  std::optional<RetryPolicy> p = RetryPolicy::Parse("8");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->max_retries, 8u);
  EXPECT_EQ(p->base_backoff_ms, RetryPolicy{}.base_backoff_ms);
  EXPECT_EQ(p->seed, 0u);
  p = RetryPolicy::Parse("16:1:42");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->max_retries, 16u);
  EXPECT_EQ(p->base_backoff_ms, 1u);
  EXPECT_EQ(p->seed, 42u);
  p = RetryPolicy::Parse("3:0");  // A zero base keeps the default.
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->base_backoff_ms, RetryPolicy{}.base_backoff_ms);
  p = RetryPolicy::Parse("4294967295");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->max_retries, 4294967295u);
  // Malformed specs are rejected whole: "-1" must not wrap to 2^32 - 1
  // retries, and "8x" must not read as 8.
  for (const char* bad : {"", "-1", "8x", " 8", "+8", "8:", ":1", "8:1:2:3",
                          "8:-1", "8:1:x", "4294967296"}) {
    EXPECT_FALSE(RetryPolicy::Parse(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(SchedulerTest, BackoffIsDeterministicCappedAndJittered) {
  RetryPolicy policy;
  policy.max_retries = 8;
  policy.base_backoff_ms = 10;
  policy.max_backoff_ms = 100;
  policy.seed = 42;
  Status shed = Status::Unavailable("queue full");
  for (uint32_t k = 0; k < 8; ++k) {
    uint64_t cap = std::min<uint64_t>(10ull << k, 100);
    uint64_t b1 = policy.BackoffMs(k, shed);
    uint64_t b2 = policy.BackoffMs(k, shed);
    EXPECT_EQ(b1, b2) << "attempt " << k;  // Same seed, same backoff.
    EXPECT_GE(b1, std::max<uint64_t>(cap - cap / 2, 1)) << "attempt " << k;
    EXPECT_LE(b1, cap) << "attempt " << k;
  }
  RetryPolicy other = policy;
  other.seed = 43;
  bool any_differ = false;
  for (uint32_t k = 0; k < 8 && !any_differ; ++k) {
    any_differ = policy.BackoffMs(k, shed) != other.BackoffMs(k, shed);
  }
  EXPECT_TRUE(any_differ);  // Jitter actually depends on the seed.
}

TEST(SchedulerTest, BackoffHonorsRetryAfterHint) {
  RetryPolicy policy;
  policy.max_retries = 2;
  policy.base_backoff_ms = 1;
  policy.max_backoff_ms = 4;
  Status hinted = Status::Unavailable("queue full").WithRetryAfter(250);
  EXPECT_GE(policy.BackoffMs(0, hinted), 250u);
  Status unhinted = Status::Unavailable("queue full");
  EXPECT_LE(policy.BackoffMs(0, unhinted), 4u);
}

TEST(SchedulerTest, RunWithRetryRecoversFromTransientsOnly) {
  RetryPolicy policy;
  policy.max_retries = 5;
  policy.base_backoff_ms = 1;
  policy.max_backoff_ms = 2;
  int calls = 0;
  Status ok = RunWithRetry(policy, [&calls] {
    ++calls;
    return calls < 3 ? Status::Unavailable("transient") : Status::OK();
  });
  EXPECT_TRUE(ok.ok()) << ok;
  EXPECT_EQ(calls, 3);

  calls = 0;
  Status permanent = RunWithRetry(policy, [&calls] {
    ++calls;
    return Status::ResourceExhausted("budget");
  });
  EXPECT_TRUE(permanent.IsResourceExhausted());
  EXPECT_EQ(calls, 1);  // Never retried.

  calls = 0;
  Status exhausted = RunWithRetry(policy, [&calls] {
    ++calls;
    return Status::Unavailable("always down");
  });
  EXPECT_TRUE(exhausted.IsUnavailable());
  EXPECT_EQ(calls, 6);  // 1 initial + 5 retries.
}

TEST(SchedulerTest, StatusRetryAfterPlumbsThroughCopies) {
  Status s = Status::Unavailable("shed").WithRetryAfter(77);
  EXPECT_EQ(s.retry_after_ms(), 77u);
  Status copy = s;
  EXPECT_EQ(copy.retry_after_ms(), 77u);
  EXPECT_TRUE(copy.IsUnavailable());
  EXPECT_EQ(Status::OK().retry_after_ms(), 0u);
}

}  // namespace
}  // namespace exec
}  // namespace lyric
