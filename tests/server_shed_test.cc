// Shed-path tests for lyric_serverd: when the server's scheduler is at
// capacity, the wire must carry the typed kUnavailable with the
// scheduler's retry-after hint, and a client armed with the
// deterministic RetryPolicy must consume the hint and eventually
// succeed. This is the PR-5 admission contract made end-to-end visible.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "exec/scheduler.h"
#include "net/client.h"
#include "net/server.h"
#include "office/office_db.h"
#include "util/fault.h"

namespace lyric {
namespace {

Database MakeDb(int scaled_desks) {
  Database db;
  auto ids = office::BuildOfficeDatabase(&db);
  EXPECT_TRUE(ids.ok()) << ids.status();
  if (scaled_desks > 0) {
    Status st = office::AddScaledDesks(&db, scaled_desks, /*seed=*/7);
    EXPECT_TRUE(st.ok()) << st;
  }
  return db;
}

const char* kFastQuery = "SELECT O FROM Object_in_Room O";

// Deterministic staging: one lane, a one-deep queue. The test holds the
// lane and parks a waiter directly through the scheduler the server
// shares — a ticket held here is indistinguishable from a running query,
// and no assumption about query duration is needed. The next wire
// arrival MUST shed with a positive retry-after hint.
TEST(ServerShed, ShedCarriesRetryAfterOverTheWire) {
  Database db = MakeDb(4);
  exec::SchedulerLimits limits;
  limits.max_concurrent = 1;
  limits.queue_capacity = 1;
  exec::QueryScheduler scheduler(limits);

  net::ServerOptions sopts;
  sopts.eval.scheduler = &scheduler;
  net::Server server(&db, sopts);
  ASSERT_TRUE(server.Start().ok());

  // Seed the scheduler's EWMA so the hint has a real duration behind it
  // (this also proves the wiring works before admission is saturated).
  {
    net::ClientOptions copts;
    copts.port = server.port();
    net::Client warmup(copts);
    Result<net::QueryResponse> resp = warmup.Execute(kFastQuery);
    ASSERT_TRUE(resp.ok()) << resp.status();
    ASSERT_TRUE(resp->status.ok()) << resp->status;
  }

  // Occupy the only lane.
  Result<exec::AdmissionTicket> lane = scheduler.Admit({});
  ASSERT_TRUE(lane.ok()) << lane.status();

  // Fill the one-deep queue with a parked waiter.
  std::atomic<bool> waiter_ok{false};
  std::thread waiter([&] {
    Result<exec::AdmissionTicket> ticket = scheduler.Admit({});
    waiter_ok = ticket.ok();
  });
  ASSERT_TRUE(scheduler.WaitForWaiters(1, /*timeout_ms=*/30000))
      << "waiter never queued";

  // Queue full: this arrival sheds, and the shed must reach this side of
  // the wire as a typed kUnavailable carrying the hint.
  net::ClientOptions no_retry;
  no_retry.port = server.port();
  net::Client shed_client(no_retry);
  Result<net::QueryResponse> shed = shed_client.Execute(kFastQuery);
  ASSERT_TRUE(shed.ok()) << "shed must be a response, not a transport error: "
                         << shed.status();
  EXPECT_TRUE(shed->status.IsUnavailable()) << shed->status;
  EXPECT_GT(shed->status.retry_after_ms(), 0u);
  EXPECT_NE(shed->status.message().find("admission"), std::string::npos);
  EXPECT_EQ(shed_client.stats().shed_responses, 1u);

  // Free the lane; the parked waiter gets the grant.
  lane->Release();
  waiter.join();
  EXPECT_TRUE(waiter_ok);

  // With admission unsaturated the very same no-retry client succeeds —
  // the shed above was admission control, not a broken server.
  Result<net::QueryResponse> after = shed_client.Execute(kFastQuery);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_TRUE(after->status.ok()) << after->status;
  server.Stop();
}

// With retries armed, forced sheds (the scheduler fault site, probability
// 1 for the first attempts is too strict — use 0.6 so a retry can land)
// must be absorbed: the client backs off by at least the server's hint
// and eventually succeeds.
TEST(ServerShed, RetryPolicyConsumesHintsAndSucceeds) {
  Database db = MakeDb(4);
  exec::SchedulerLimits limits;
  limits.max_concurrent = 2;
  exec::QueryScheduler scheduler(limits);

  net::ServerOptions sopts;
  sopts.eval.scheduler = &scheduler;
  net::Server server(&db, sopts);
  ASSERT_TRUE(server.Start().ok());

  // Force sheds on ~60% of admissions, deterministically seeded.
  ASSERT_TRUE(fault::Configure("scheduler:0.6:21"));

  net::ClientOptions copts;
  copts.port = server.port();
  copts.retry.max_retries = 10;
  copts.retry.base_backoff_ms = 1;
  copts.retry.seed = 3;
  net::Client client(copts);
  int succeeded = 0;
  for (int i = 0; i < 12; ++i) {
    Result<net::QueryResponse> resp = client.Execute(kFastQuery);
    ASSERT_TRUE(resp.ok()) << resp.status();
    if (resp->status.ok()) ++succeeded;
  }
  fault::Configure("");

  EXPECT_EQ(succeeded, 12) << "retries failed to absorb forced sheds";
  EXPECT_GT(client.stats().shed_responses, 0u)
      << "fault site never fired; the test exercised nothing";
  // Every shed consumed backs off by at least the 1ms-clamped hint.
  EXPECT_GE(client.stats().backoff_ms_total, client.stats().shed_responses);
  server.Stop();
}

}  // namespace
}  // namespace lyric
