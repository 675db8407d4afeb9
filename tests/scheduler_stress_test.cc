// Admission-control acceptance test (ISSUE 5): 16 simultaneous governed
// queries against a scheduler capped at 2 concurrent. Every query must
// pass through admission (none ungoverned), shed arrivals must carry a
// typed kUnavailable with a retry-after hint, retried queries must
// eventually succeed with answers byte-identical to an unscheduled serial
// run, and the cross-query ledger must drain to zero when the storm ends.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "constraint/solver_cache.h"
#include "exec/scheduler.h"
#include "office/office_db.h"
#include "query/evaluator.h"

namespace lyric {
namespace {

// §4.1 worked examples — read-mostly, so 16 copies can run against one
// shared Database; governed via a generous deadline that never trips.
const char* kPaperQueries[] = {
    "SELECT Y FROM Desk X WHERE X.drawer.extent[Y]",
    "SELECT CO, ((u, v) | E(w, z) and D(w, z, x, y, u, v) and x = 6 and "
    "y = 4) FROM Office_Object CO WHERE CO.extent[E] and CO.translation[D]",
    "SELECT O FROM Object_in_Room O "
    "WHERE O.location[L] and L(x, y) |= x <= 12",
    "SELECT CO, ((u, v) | CO.extent and CO.translation and x = 6 and y = 4) "
    "FROM Office_Object CO",
};

class SchedulerStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ids = office::BuildOfficeDatabase(&db_);
    ASSERT_TRUE(ids.ok()) << ids.status();
    SolverCache::Global().Clear();
  }
  void TearDown() override { SolverCache::Global().Clear(); }

  Database db_;
};

TEST_F(SchedulerStressTest, SixteenGovernedQueriesThroughATwoLaneScheduler) {
  constexpr int kThreads = 16;

  // Unscheduled serial baseline, one answer per query text.
  std::vector<std::string> expected;
  for (const char* q : kPaperQueries) {
    Evaluator ev(&db_);
    auto r = ev.Execute(q);
    ASSERT_TRUE(r.ok()) << q << "\n -> " << r.status();
    expected.push_back(r->ToString());
  }

  // A private two-lane scheduler with a short queue, so the 16-thread
  // storm exercises every admission outcome: direct grants, queued
  // grants, and queue-full sheds.
  exec::SchedulerLimits limits;
  limits.max_concurrent = 2;
  limits.queue_capacity = 4;
  exec::QueryScheduler sched(limits);

  // Occupy both lanes before the storm: with a warm solver cache the
  // queries are near-instant, so without this the threads would trickle
  // through two free lanes without ever queueing. Held tickets make the
  // contention structural — every arrival must queue or shed.
  auto lane_a = sched.Admit(exec::AdmissionRequest{});
  auto lane_b = sched.Admit(exec::AdmissionRequest{});
  ASSERT_TRUE(lane_a.ok());
  ASSERT_TRUE(lane_b.ok());

  std::atomic<int> started{0};
  std::atomic<uint64_t> sheds_seen{0};
  std::atomic<bool> bad_shed{false};
  std::vector<std::string> answers(kThreads);
  std::vector<Status> governor_statuses(kThreads, Status::Internal("unset"));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int id = 0; id < kThreads; ++id) {
    threads.emplace_back([&, id] {
      EvalOptions opts;
      opts.deadline_ms = 60000;  // Governed, but never trips.
      opts.scheduler = &sched;
      opts.retry = exec::RetryPolicy{};  // Retries handled manually below.
      Evaluator ev(&db_, opts);
      const char* query = kPaperQueries[id % 4];
      // Barrier: every thread arrives at the scheduler at once.
      started.fetch_add(1);
      while (started.load() < kThreads) std::this_thread::yield();
      for (int attempt = 0; attempt < 1000; ++attempt) {
        auto r = ev.Execute(query);
        if (r.ok()) {
          answers[id] = r->ToString();
          governor_statuses[id] = r->governor_status();
          return;
        }
        // Every shed must be the typed transient status with a hint.
        if (!r.status().IsUnavailable() || r.status().retry_after_ms() == 0) {
          bad_shed.store(true);
          return;
        }
        sheds_seen.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(
            std::min<uint64_t>(r.status().retry_after_ms(), 20)));
      }
    });
  }
  // Hold the lanes until the queue is full (4 waiting) and the arrivals
  // beyond it have been shed at least 12 times — only then start granting.
  // The bound is an event count, so retried sheds can only overshoot it.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < give_up &&
         (sched.stats().waiting < 4 || sheds_seen.load() < 12)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(sheds_seen.load(), 12u);
  lane_a->Release();
  lane_b->Release();
  for (auto& th : threads) th.join();

  EXPECT_FALSE(bad_shed.load())
      << "a rejected query carried something other than "
         "kUnavailable+retry-after";
  for (int id = 0; id < kThreads; ++id) {
    EXPECT_EQ(answers[id], expected[id % 4]) << "thread " << id;
    // Governed end to end: the governor ran and reported no trip.
    EXPECT_TRUE(governor_statuses[id].ok()) << governor_statuses[id];
  }

  exec::SchedulerStats stats = sched.stats();
  // Every query was admitted exactly once (sheds are not admissions),
  // plus the two lane-holding tickets.
  EXPECT_EQ(stats.admitted, static_cast<uint64_t>(kThreads) + 2);
  EXPECT_LE(stats.peak_active, 2u);  // The cap held at every instant.
  EXPECT_GE(stats.peak_active, 1u);
  // With both lanes held, every first attempt queued or shed.
  EXPECT_GE(stats.queued + stats.shed, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(stats.shed, sheds_seen.load());
  // The storm is over: ledger and queue fully drained.
  EXPECT_EQ(stats.active, 0u);
  EXPECT_EQ(stats.waiting, 0u);
  EXPECT_EQ(stats.reserved_memory, 0u);
}

TEST_F(SchedulerStressTest, EvaluatorRetryLoopRecoversShedsTransparently) {
  // Same storm, but the evaluator's own RetryPolicy absorbs the sheds:
  // callers only ever see success.
  exec::SchedulerLimits limits;
  limits.max_concurrent = 2;
  limits.queue_capacity = 2;
  exec::QueryScheduler sched(limits);

  std::string expected;
  {
    Evaluator ev(&db_);
    auto r = ev.Execute(kPaperQueries[0]);
    ASSERT_TRUE(r.ok()) << r.status();
    expected = r->ToString();
  }

  constexpr int kThreads = 8;
  std::atomic<int> started{0};
  std::atomic<int> failures{0};
  std::vector<std::string> answers(kThreads);
  std::vector<std::thread> threads;
  for (int id = 0; id < kThreads; ++id) {
    threads.emplace_back([&, id] {
      EvalOptions opts;
      opts.deadline_ms = 60000;
      opts.scheduler = &sched;
      exec::RetryPolicy patient;
      patient.max_retries = 200;
      patient.base_backoff_ms = 1;
      patient.max_backoff_ms = 8;
      patient.seed = static_cast<uint64_t>(id);
      opts.retry = patient;
      Evaluator ev(&db_, opts);
      started.fetch_add(1);
      while (started.load() < kThreads) std::this_thread::yield();
      auto r = ev.Execute(kPaperQueries[0]);
      if (!r.ok()) {
        failures.fetch_add(1);
        return;
      }
      answers[id] = r->ToString();
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0);
  for (int id = 0; id < kThreads; ++id) {
    EXPECT_EQ(answers[id], expected) << "thread " << id;
  }
  exec::SchedulerStats stats = sched.stats();
  EXPECT_EQ(stats.admitted, static_cast<uint64_t>(kThreads));
  EXPECT_LE(stats.peak_active, 2u);
  EXPECT_EQ(stats.active, 0u);
  EXPECT_EQ(stats.reserved_memory, 0u);
}

TEST_F(SchedulerStressTest, QueuedGrantReportsQueuedAdmission) {
  // A query that waits for the single lane reports the "queued" admission
  // mode with its wait, and answers exactly as an unscheduled run does.
  exec::SchedulerLimits limits;
  limits.max_concurrent = 1;
  exec::QueryScheduler sched(limits);

  std::string expected;
  {
    Evaluator ev(&db_);
    auto r = ev.Execute(kPaperQueries[1]);
    ASSERT_TRUE(r.ok()) << r.status();
    expected = r->ToString();
  }

  // Occupy the single lane, then run a query that must queue behind it.
  auto held = sched.Admit(exec::AdmissionRequest{});
  ASSERT_TRUE(held.ok());
  std::atomic<bool> done{false};
  Result<ResultSet> queued = Status::Internal("not run");
  std::thread runner([&] {
    EvalOptions opts;
    opts.deadline_ms = 60000;
    opts.scheduler = &sched;
    Evaluator ev(&db_, opts);
    queued = ev.Execute(kPaperQueries[1]);
    done.store(true);
  });
  ASSERT_TRUE(sched.WaitForWaiters(1, 5000));
  EXPECT_FALSE(done.load());
  held->Release();
  runner.join();
  ASSERT_TRUE(queued.ok()) << queued.status();
  EXPECT_EQ(queued->ToString(), expected);
  EXPECT_EQ(queued->admission().mode, "queued");
  EXPECT_GT(queued->admission().queue_wait_ns, 0u);
  exec::SchedulerStats stats = sched.stats();
  EXPECT_EQ(stats.queued, 1u);
  EXPECT_EQ(stats.active, 0u);
}

}  // namespace
}  // namespace lyric
