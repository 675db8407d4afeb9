// Graceful drain: BeginDrain() must deliver a response for every query
// the server already accepted, refuse new connections at the TCP level,
// and shed queries arriving on surviving sessions with a typed
// kUnavailable + retry-after — never a cut connection. WaitForDrainIdle
// is the barrier lyric_serverd's SIGTERM path waits on; the process-
// level version of this test (a real SIGTERM against a real serverd)
// lives in server_chaos_test.cc.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "net/socket.h"
#include "office/office_db.h"
#include "query/evaluator.h"

namespace lyric {
namespace {

Database MakeDb(int scale) {
  Database db;
  auto ids = office::BuildOfficeDatabase(&db);
  EXPECT_TRUE(ids.ok()) << ids.status();
  if (scale > 0) {
    Status st = office::AddScaledDesks(&db, scale, /*seed=*/7);
    EXPECT_TRUE(st.ok()) << st;
  }
  return db;
}

net::ClientOptions PlainClient(uint16_t port) {
  net::ClientOptions opts;
  opts.port = port;
  return opts;
}

const char kQuery[] = "SELECT O FROM Object_in_Room O";

TEST(ServerDrain, ShedsNewWorkRefusesNewConnectionsAnswersHealth) {
  Database db = MakeDb(0);
  net::ServerOptions sopts;
  sopts.drain_retry_after_ms = 77;
  net::Server server(&db, sopts);
  ASSERT_TRUE(server.Start().ok());

  net::Client survivor(PlainClient(server.port()));
  Result<net::QueryResponse> before = survivor.Execute(kQuery);
  ASSERT_TRUE(before.ok()) << before.status();
  ASSERT_TRUE(before->status.ok()) << before->status;
  EXPECT_EQ(survivor.last_server_health(), net::HealthState::kServing);

  server.BeginDrain();
  EXPECT_TRUE(server.draining());
  EXPECT_EQ(server.health(), net::HealthState::kDraining);

  // New connections are refused at the TCP level — the listener is
  // closed, not just ignoring accepts.
  net::Client late(PlainClient(server.port()));
  EXPECT_FALSE(late.Connect().ok());

  // The surviving session stays connected: its queries come back as
  // typed sheds with the configured retry-after, not cut connections.
  Result<net::QueryResponse> shed = survivor.Execute(kQuery);
  ASSERT_TRUE(shed.ok()) << "drain cut an open session: " << shed.status();
  EXPECT_TRUE(shed->status.IsUnavailable()) << shed->status;
  EXPECT_NE(shed->status.message().find("draining"), std::string::npos)
      << shed->status;
  EXPECT_EQ(shed->status.retry_after_ms(), 77u);
  EXPECT_EQ(survivor.last_server_health(), net::HealthState::kDraining);
  EXPECT_EQ(survivor.stats().in_flight_at_disconnect, 0u);

  // Health probes still answer during the drain (how a supervisor
  // watches it finish).
  net::HealthInfo info;
  ASSERT_TRUE(survivor.Health(&info).ok());
  EXPECT_EQ(info.state, net::HealthState::kDraining);
  EXPECT_TRUE(info.draining);

  // Nothing in flight -> the barrier clears immediately.
  EXPECT_TRUE(server.WaitForDrainIdle(1000));
  survivor.Close();
  server.Stop();
  EXPECT_EQ(server.active_sessions(), 0u);
}

TEST(ServerDrain, AcceptedQueriesCompleteWithCorrectAnswers) {
  Database db = MakeDb(10);
  net::ServerOptions sopts;
  net::Server server(&db, sopts);
  ASSERT_TRUE(server.Start().ok());

  // The answer accepted queries must still produce, drain or no drain.
  EvalOptions direct;
  direct.retry = exec::RetryPolicy{};
  std::string expected;
  {
    Evaluator ev(&db, direct);
    expected = net::ResponseFromResult(ev.Execute(kQuery)).Fingerprint();
  }

  // Every client connects, and the server accepts every session, before
  // the drain can begin: the contract covers accepted sessions. A
  // connection still in the kernel's listen backlog when the drain
  // begins is reset, and one not yet made is refused (docs/SERVER.md).
  constexpr int kClients = 4;
  std::vector<std::unique_ptr<net::Client>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(
        std::make_unique<net::Client>(PlainClient(server.port())));
    ASSERT_TRUE(clients.back()->Connect().ok());
  }
  for (int spin = 0; spin < 5000 && server.active_sessions() != kClients;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.active_sessions(), static_cast<size_t>(kClients));

  // Clients hammer the server; none is retry-armed, so the FIRST shed
  // each one sees ends its loop — mirroring how lyric_serverd's drain
  // expects clients to go away.
  std::atomic<uint64_t> ok_responses{0};
  std::atomic<uint64_t> sheds{0};
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      net::Client& client = *clients[c];
      for (int round = 0; round < 10000; ++round) {
        Result<net::QueryResponse> resp = client.Execute(kQuery);
        if (!resp.ok()) {
          // A transport failure means an accepted query was dropped —
          // exactly what drain forbids.
          failures[c] = "transport: " + resp.status().ToString();
          return;
        }
        if (resp->status.IsUnavailable()) {
          ++sheds;
          return;  // drained; disconnect like a well-behaved client
        }
        if (!resp->status.ok()) {
          failures[c] = "eval: " + resp->status.ToString();
          return;
        }
        if (resp->Fingerprint() != expected) {
          failures[c] = "fingerprint diverged under drain";
          return;
        }
        ++ok_responses;
      }
    });
  }

  // Let the load establish, then drain mid-flight — ideally while a
  // query is actually evaluating, but the assertions hold either way.
  for (int spin = 0; spin < 2000; ++spin) {
    if (ok_responses.load() >= 4 && server.in_flight_queries() > 0) break;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  server.BeginDrain();

  for (std::thread& t : threads) t.join();
  clients.clear();  // Disconnect, as lyric_serverd's drain expects.
  for (int c = 0; c < kClients; ++c) EXPECT_EQ(failures[c], "");
  EXPECT_EQ(sheds.load(), static_cast<uint64_t>(kClients))
      << "every client should end on exactly one shed";
  EXPECT_GT(ok_responses.load(), 0u);

  // All clients disconnected after their shed; the barrier must clear
  // and no session may leak.
  EXPECT_TRUE(server.WaitForDrainIdle(5000));
  for (int spin = 0; spin < 5000 && server.active_sessions() != 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.active_sessions(), 0u);
  server.Stop();
}

TEST(ServerDrain, IdempotentAndStopAfterDrainIsClean) {
  Database db = MakeDb(0);
  net::Server server(&db, net::ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  server.BeginDrain();
  server.BeginDrain();  // second call is a no-op
  EXPECT_TRUE(server.WaitForDrainIdle(100));
  server.Stop();
  server.Stop();
  EXPECT_EQ(server.active_sessions(), 0u);
  EXPECT_FALSE(server.running());
}

}  // namespace
}  // namespace lyric
