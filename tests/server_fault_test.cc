// Fault-injection tests for the `net` site (LYRIC_FAULT=net:prob:seed):
// injected transport faults must surface as typed kUnavailable statuses,
// the server must keep serving through them, and nothing may leak —
// sessions drain to zero and the admission ledger returns to empty.
// (The broader gate — the whole e2e suite under LYRIC_FAULT=net —
// is fault_gate_server_net in tests/CMakeLists.txt.)

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "exec/scheduler.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "office/office_db.h"
#include "util/fault.h"

namespace lyric {
namespace {

Database MakeDb() {
  Database db;
  auto ids = office::BuildOfficeDatabase(&db);
  EXPECT_TRUE(ids.ok()) << ids.status();
  return db;
}

uint64_t InjectedCount() {
  return obs::Registry::Global().GetCounter("net.faults.injected").value();
}

class ServerFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::ConfigureForTesting(""); }
};

TEST_F(ServerFaultTest, FaultsAreTypedUnavailable) {
  ASSERT_TRUE(fault::ConfigureForTesting("net:1.0:5"));
  const uint64_t before = InjectedCount();
  Result<net::Socket> sock = net::Socket::Connect("127.0.0.1", 1);
  ASSERT_FALSE(sock.ok());
  EXPECT_TRUE(sock.status().IsUnavailable()) << sock.status();
  EXPECT_NE(sock.status().message().find("injected"), std::string::npos);
  EXPECT_GT(InjectedCount(), before);
}

TEST_F(ServerFaultTest, ServerKeepsServingThroughFaults) {
  Database db = MakeDb();
  exec::SchedulerLimits limits;
  limits.max_concurrent = 2;
  exec::QueryScheduler scheduler(limits);

  net::ServerOptions sopts;
  sopts.eval.scheduler = &scheduler;
  net::Server server(&db, sopts);
  ASSERT_TRUE(server.Start().ok());

  const std::string query = "SELECT O FROM Object_in_Room O";
  std::string expected;
  {
    net::ClientOptions copts;
    copts.port = server.port();
    net::Client clean(copts);
    Result<net::QueryResponse> resp = clean.Execute(query);
    ASSERT_TRUE(resp.ok()) << resp.status();
    ASSERT_TRUE(resp->status.ok());
    expected = resp->Fingerprint();
  }

  // Arm the site AFTER the server is up so Bind/Listen stay clean; from
  // here every read/write/accept/connect can fail with probability 0.2.
  ASSERT_TRUE(fault::ConfigureForTesting("net:0.2:9"));
  const uint64_t before = InjectedCount();

  net::ClientOptions copts;
  copts.port = server.port();
  copts.retry.max_retries = 32;
  copts.retry.base_backoff_ms = 1;
  copts.retry.seed = 4;
  net::Client client(copts);
  int ok = 0;
  constexpr int kRequests = 20;
  for (int i = 0; i < kRequests; ++i) {
    Result<net::QueryResponse> resp = client.Execute(query);
    if (resp.ok() && resp->status.ok() && resp->Fingerprint() == expected) {
      ++ok;
    }
  }
  EXPECT_GT(InjectedCount(), before) << "the site never fired";
  // An attempt touches several socket ops, so at p=0.2 a single attempt
  // fails often; 32 retries push whole-request exhaustion below 1e-4
  // even with the op sequence perturbed by scheduling (partial reads,
  // reconnect races). Anything less than a full sweep means retries are
  // not reconnecting properly.
  EXPECT_EQ(ok, kRequests);
  EXPECT_GT(client.stats().transport_errors, 0u)
      << "no transport error ever observed at p=0.2; injection is broken";

  // Disarm and verify the server is fully healthy, with nothing leaked.
  fault::ConfigureForTesting("");
  client.Close();
  {
    net::ClientOptions clean_opts;
    clean_opts.port = server.port();
    net::Client clean(clean_opts);
    Result<net::QueryResponse> resp = clean.Execute(query);
    ASSERT_TRUE(resp.ok()) << resp.status();
    EXPECT_EQ(resp->Fingerprint(), expected);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.active_sessions() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.active_sessions(), 0u) << "session leaked across faults";
  // The admission ledger must be empty: every ticket released despite
  // evaluations whose response write failed.
  exec::SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.active, 0u);
  EXPECT_EQ(stats.waiting, 0u);
  EXPECT_EQ(stats.reserved_memory, 0u);
  server.Stop();
}

TEST_F(ServerFaultTest, StopUnderFaultsLeaksNothing) {
  Database db = MakeDb();
  net::Server server(&db, net::ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  // A few live sessions mid-traffic, then Stop with faults firing on the
  // teardown path itself.
  std::vector<std::unique_ptr<net::Client>> clients;
  for (int i = 0; i < 3; ++i) {
    net::ClientOptions copts;
    copts.port = server.port();
    copts.retry.max_retries = 8;
    copts.retry.base_backoff_ms = 1;
    auto client = std::make_unique<net::Client>(copts);
    (void)client->Execute("SELECT O FROM Object_in_Room O");
    clients.push_back(std::move(client));
  }
  ASSERT_TRUE(fault::ConfigureForTesting("net:0.5:11"));
  server.Stop();
  EXPECT_EQ(server.active_sessions(), 0u);
  EXPECT_FALSE(server.running());
}

}  // namespace
}  // namespace lyric
