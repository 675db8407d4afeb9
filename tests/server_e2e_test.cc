// End-to-end differential tests for lyric_serverd: every response a
// client reads off the wire must be byte-identical to evaluating the
// same query directly in process — rendered table, truncation flag,
// diagnostics, PARTIAL trailers, typed error statuses. The server adds
// transport, framing and session handling; it must add exactly zero
// observable semantics.
//
// Every client in this binary is armed with a deterministic RetryPolicy
// (8 retries, 1ms base), so the whole binary doubles as the `net`
// fault gate: ctest runs it again under LYRIC_FAULT=net:0.1:7, where
// ~10% of socket operations fail with typed kUnavailable faults, and
// every assertion here must still hold (fault_gate_server_net in
// tests/CMakeLists.txt). The CI TSan job runs it a third time for
// data-race coverage.

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "constraint/solver_cache.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "office/office_db.h"
#include "query/evaluator.h"
#include "util/fault.h"

namespace lyric {
namespace {

const char* kSuite[] = {
    "SELECT Y FROM Desk X WHERE X.drawer.extent[Y]",
    "SELECT CO, ((u, v) | E(w, z) and D(w, z, x, y, u, v) and x = 6 and "
    "y = 4) FROM Office_Object CO WHERE CO.extent[E] and CO.translation[D]",
    "SELECT O FROM Object_in_Room O "
    "WHERE O.location[L] and L(x, y) |= x <= 12",
    "SELECT O FROM Object_in_Room O",
};
constexpr size_t kSuiteSize = sizeof(kSuite) / sizeof(kSuite[0]);

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

net::ClientOptions TestClientOptions(uint16_t port, uint64_t seed = 1) {
  net::ClientOptions opts;
  opts.port = port;
  // Armed so the binary survives the net fault gate: injected transport
  // faults and sheds are absorbed deterministically.
  opts.retry.max_retries = 8;
  opts.retry.base_backoff_ms = 1;
  opts.retry.seed = seed;
  return opts;
}

/// The expected response for `query`, evaluated directly in process with
/// the same options the server applies.
net::QueryResponse DirectEval(Database* db, const std::string& query,
                              EvalOptions opts) {
  opts.retry = exec::RetryPolicy{};  // Mirrors the server's forced default.
  Evaluator ev(db, opts);
  return net::ResponseFromResult(ev.Execute(query));
}

/// Strips the one timing-variable token in a governor report ("after
/// Nms") so PARTIAL responses can be byte-compared; everything else in
/// the report (trip kind, site, pivot/binding/memory counts) is
/// deterministic and stays.
std::string StripElapsed(const std::string& text) {
  static const std::regex kElapsed("after [0-9]+ms");
  return std::regex_replace(text, kElapsed, "after Xms");
}

TEST(ServerE2E, ByteIdenticalUnderConcurrency) {
  Database db = MakeDb(10);
  net::ServerOptions sopts;
  net::Server server(&db, sopts);
  ASSERT_TRUE(server.Start().ok());

  EvalOptions direct;
  std::vector<std::string> expected(kSuiteSize);
  for (size_t q = 0; q < kSuiteSize; ++q) {
    expected[q] = DirectEval(&db, kSuite[q], direct).Fingerprint();
  }

  constexpr int kClients = 6;
  constexpr int kRounds = 3;
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      net::Client client(
          TestClientOptions(server.port(), static_cast<uint64_t>(c) + 1));
      for (int round = 0; round < kRounds; ++round) {
        for (size_t q = 0; q < kSuiteSize; ++q) {
          Result<net::QueryResponse> resp = client.Execute(kSuite[q]);
          if (!resp.ok()) {
            failures[c] = "transport: " + resp.status().ToString();
            return;
          }
          if (resp->Fingerprint() != expected[q]) {
            failures[c] = std::string("fingerprint diverged on: ") + kSuite[q];
            return;
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], "") << "client " << c;
  }

  server.Stop();
  EXPECT_EQ(server.active_sessions(), 0u);
}

TEST(ServerE2E, ErrorsTravelTyped) {
  Database db = MakeDb(0);
  net::Server server(&db, net::ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  const std::string bad_queries[] = {
      "SELECT",                                  // parse error
      "SELECT O FROM NoSuchClass O",             // unknown class
      "SELECT O FROM Desk O WHERE O.location[",  // parse error
  };
  net::Client client(TestClientOptions(server.port()));
  for (const std::string& q : bad_queries) {
    EvalOptions direct;
    Evaluator ev(&db, direct);
    Result<ResultSet> want = ev.Execute(q);
    ASSERT_FALSE(want.ok()) << q;

    Result<net::QueryResponse> resp = client.Execute(q);
    ASSERT_TRUE(resp.ok()) << q << " -> " << resp.status();
    EXPECT_EQ(resp->status.code(), want.status().code()) << q;
    EXPECT_EQ(resp->status.message(), want.status().message()) << q;
  }
  server.Stop();
}

TEST(ServerE2E, DeeplyNestedQueryGetsTypedErrorAndSessionSurvives) {
  // A 200 KB frame of 100,000 nested parentheses must not overflow the
  // reader thread's stack: the parser's nesting bound turns it into a
  // typed parse error, and the connection goes on serving.
  Database db = MakeDb(0);
  net::Server server(&db, net::ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  const std::string deep = "SELECT O FROM Object_in_Room O WHERE SAT(x <= " +
                           std::string(100000, '(') + "1" +
                           std::string(100000, ')') + ")";
  net::Client client(TestClientOptions(server.port()));
  Result<net::QueryResponse> resp = client.Execute(deep);
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_TRUE(resp->status.IsParseError()) << resp->status;

  const std::string normal = kSuite[3];
  Result<net::QueryResponse> after = client.Execute(normal);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->Fingerprint(),
            DirectEval(&db, normal, EvalOptions{}).Fingerprint());
  // Same connection, unless the net fault gate injected a drop.
  if (!fault::Enabled()) {
    EXPECT_EQ(client.stats().reconnects, 0u);
  }
  server.Stop();
}

TEST(ServerE2E, LongSumFrameAnswersLikeItsValueAndSessionSurvives) {
  // A ~400 KB frame holding one 200,000-term sum: the sum is one n-ary
  // node, so parsing, checking and building it recurse by nesting, not
  // by length. It answers with the rows of its folded value, and the
  // connection goes on serving.
  Database db = MakeDb(0);
  net::Server server(&db, net::ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  const std::string prefix =
      "SELECT O FROM Object_in_Room O WHERE SAT(x <= ";
  std::string sum = "1";
  for (int i = 1; i < 200000; ++i) sum += "+1";
  net::Client client(TestClientOptions(server.port()));
  Result<net::QueryResponse> chain = client.Execute(prefix + sum + ")");
  ASSERT_TRUE(chain.ok()) << chain.status();
  ASSERT_TRUE(chain->status.ok()) << chain->status;
  Result<net::QueryResponse> folded = client.Execute(prefix + "200000)");
  ASSERT_TRUE(folded.ok()) << folded.status();
  EXPECT_EQ(chain->rendered, folded->rendered);
  EXPECT_EQ(chain->row_count, folded->row_count);
  EXPECT_GT(chain->row_count, 0u);

  const std::string paper = kSuite[1];
  Result<net::QueryResponse> after = client.Execute(paper);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->Fingerprint(),
            DirectEval(&db, paper, EvalOptions{}).Fingerprint());
  if (!fault::Enabled()) {
    EXPECT_EQ(client.stats().reconnects, 0u);
  }
  server.Stop();
}

TEST(ServerE2E, DiagnosticsTravel) {
  Database db = MakeDb(0);
  net::Server server(&db, net::ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  // Trips the analyzer's disjunctive-entailment warning, so the wire
  // must carry a non-empty diagnostics list, byte-equal to direct
  // evaluation's.
  const std::string query =
      "SELECT DSK FROM Desk DSK "
      "WHERE DSK.drawer_center[C] and C(p, q) |= (p <= 0 or p >= 1)";
  EvalOptions direct;
  direct.analyze_first = true;
  net::QueryResponse want = DirectEval(&db, query, direct);
  ASSERT_FALSE(want.diagnostics.empty());

  net::ClientOptions copts = TestClientOptions(server.port());
  copts.analyze_first = true;
  net::Client client(copts);
  Result<net::QueryResponse> resp = client.Execute(query);
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->diagnostics, want.diagnostics);
  EXPECT_EQ(resp->Fingerprint(), want.Fingerprint());
  server.Stop();
}

TEST(ServerE2E, PartialTrailerTravels) {
  Database db = MakeDb(12);
  // A pivot budget small enough that the scan trips mid-flight: the
  // response must carry the partial rows, the governor code, and the
  // "-- PARTIAL" trailer in the rendered table, matching direct
  // evaluation modulo the elapsed-ms token.
  net::ServerOptions sopts;
  sopts.eval.max_pivots = 20;
  // The governor report counts pivots actually spent, and a solver-cache
  // hit spends none — disable memoization on both sides so the counts in
  // the compared reports are run-order independent.
  const size_t cache_capacity = SolverCache::Global().capacity();
  SolverCache::Global().set_capacity(0);
  net::Server server(&db, sopts);
  ASSERT_TRUE(server.Start().ok());

  // The entailment is over each catalog extent, a box of inequalities,
  // so every row costs pivots; a location is a point, which substitution
  // decides with none.
  const std::string query =
      "SELECT O FROM Object_in_Room O WHERE O.catalog_object[C] and "
      "C.extent[E] and E(w, z) |= w <= 12";
  EvalOptions direct;
  direct.max_pivots = 20;
  net::QueryResponse want = DirectEval(&db, query, direct);
  ASSERT_TRUE(want.status.ok());
  ASSERT_NE(want.governor_code, 0) << "budget did not trip; raise the scale";
  ASSERT_NE(want.rendered.find("-- PARTIAL"), std::string::npos);

  net::Client client(TestClientOptions(server.port()));
  Result<net::QueryResponse> resp = client.Execute(query);
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp->governor_code, want.governor_code);
  EXPECT_NE(resp->rendered.find("-- PARTIAL"), std::string::npos);
  EXPECT_EQ(StripElapsed(resp->Fingerprint()), StripElapsed(want.Fingerprint()));
  EXPECT_EQ(StripElapsed(resp->governor_report),
            StripElapsed(want.governor_report));
  server.Stop();
  SolverCache::Global().set_capacity(cache_capacity);
}

TEST(ServerE2E, HugeDeadlineIsUnlimited) {
  // Any u64 a client sends as deadline_ms must behave: past what the
  // clock can hold it saturates to "never", so the answer is the
  // byte-identical unlimited one, not an instant deadline partial.
  Database db = MakeDb(0);
  net::Server server(&db, net::ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  net::ClientOptions copts = TestClientOptions(server.port());
  copts.deadline_ms = std::numeric_limits<uint64_t>::max();
  net::Client client(copts);
  for (const char* query : kSuite) {
    Result<net::QueryResponse> resp = client.Execute(query);
    ASSERT_TRUE(resp.ok()) << query << " -> " << resp.status();
    EXPECT_EQ(resp->governor_code, 0) << query;
    EXPECT_EQ(resp->Fingerprint(),
              DirectEval(&db, query, EvalOptions{}).Fingerprint())
        << query;
  }
  server.Stop();
}

TEST(ServerE2E, TruncationFlagTravels) {
  Database db = MakeDb(20);
  net::Server server(&db, net::ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  const std::string query = "SELECT O FROM Object_in_Room O";
  EvalOptions direct;
  direct.max_rows = 5;
  net::QueryResponse want = DirectEval(&db, query, direct);
  ASSERT_TRUE(want.truncated);

  net::ClientOptions copts = TestClientOptions(server.port());
  copts.max_rows = 5;
  net::Client client(copts);
  Result<net::QueryResponse> resp = client.Execute(query);
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_TRUE(resp->truncated);
  EXPECT_EQ(resp->row_count, want.row_count);
  EXPECT_EQ(resp->Fingerprint(), want.Fingerprint());
  server.Stop();
}

TEST(ServerE2E, CreateViewSerializedAcrossClients) {
  Database db = MakeDb(6);
  net::ServerOptions sopts;
  net::Server server(&db, sopts);
  ASSERT_TRUE(server.Start().ok());

  // Several clients race view creation (exclusive schema gate) against
  // reads (shared gate). Every request must succeed; afterwards every
  // view must be queryable.
  constexpr int kCreators = 3;
  std::vector<std::string> failures(kCreators);
  std::vector<std::thread> threads;
  for (int c = 0; c < kCreators; ++c) {
    threads.emplace_back([&, c] {
      net::Client client(
          TestClientOptions(server.port(), static_cast<uint64_t>(c) + 11));
      const std::string view = "E2E_View_" + std::to_string(c);
      Result<net::QueryResponse> created = client.Execute(
          "CREATE VIEW " + view +
          " AS SUBCLASS OF Object_in_Room SELECT O FROM Object_in_Room O "
          "WHERE O.location[L] and L(x, y) |= x <= 12");
      // Under the net fault gate a lost response frame makes the client
      // retry a CREATE that already committed; the AlreadyExists on the
      // second attempt proves the first one worked.
      if (!created.ok() ||
          (!created->status.ok() && !created->status.IsAlreadyExists())) {
        failures[c] = "create failed";
        return;
      }
      for (int i = 0; i < 4; ++i) {
        Result<net::QueryResponse> read =
            client.Execute("SELECT O FROM Object_in_Room O");
        if (!read.ok() || !read->status.ok()) {
          failures[c] = "interleaved read failed";
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int c = 0; c < kCreators; ++c) EXPECT_EQ(failures[c], "");

  net::Client reader(TestClientOptions(server.port(), 99));
  for (int c = 0; c < kCreators; ++c) {
    Result<net::QueryResponse> resp =
        reader.Execute("SELECT V FROM E2E_View_" + std::to_string(c) + " V");
    ASSERT_TRUE(resp.ok());
    EXPECT_TRUE(resp->status.ok()) << resp->status;
  }
  server.Stop();
}

TEST(ServerE2E, PingAndSessionAccounting) {
  Database db = MakeDb(0);
  net::Server server(&db, net::ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  {
    net::Client client(TestClientOptions(server.port()));
    // Ping has no retry loop of its own; under the fault gate a probe
    // can legitimately fail, so allow a few attempts.
    Status st = Status::Unavailable("unset");
    for (int attempt = 0; attempt < 20 && !st.ok(); ++attempt) {
      st = client.Ping();
    }
    EXPECT_TRUE(st.ok()) << st;
    EXPECT_GE(server.sessions_opened(), 1u);
  }
  // The client destructor closed the connection; the server notices the
  // EOF and marks the session done.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.active_sessions() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.active_sessions(), 0u) << "session leaked after EOF";
  server.Stop();
}

TEST(ServerE2E, SurvivesAbruptDisconnects) {
  Database db = MakeDb(0);
  net::Server server(&db, net::ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  // Connections that vanish mid-frame must not take the server down or
  // leak sessions.
  for (int i = 0; i < 5; ++i) {
    Result<net::Socket> raw = net::Socket::Connect("127.0.0.1", server.port());
    if (!raw.ok()) continue;  // Injected fault under the gate; fine.
    char header[net::kFrameHeaderBytes];
    net::EncodeFrameHeader(net::FrameType::kQuery, 1024, header);
    // Send the header promising 1024 payload bytes, then hang up.
    (void)raw->WriteFull(header, sizeof(header));
    raw->Close();
  }

  net::Client client(TestClientOptions(server.port()));
  Result<net::QueryResponse> resp =
      client.Execute("SELECT O FROM Object_in_Room O");
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_TRUE(resp->status.ok());

  client.Close();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.active_sessions() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.active_sessions(), 0u);
  server.Stop();
}

TEST(ServerE2E, ProtocolViolationsGetTypedErrorFrames) {
  Database db = MakeDb(0);
  net::Server server(&db, net::ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  struct Violation {
    const char* name;
    std::string bytes;
  };
  std::vector<Violation> violations;
  {
    char h[net::kFrameHeaderBytes];
    net::EncodeFrameHeader(net::FrameType::kQuery, 0, h);
    std::string bad_magic(h, sizeof(h));
    bad_magic[0] = 'X';
    violations.push_back({"bad magic", bad_magic});

    net::EncodeFrameHeader(net::FrameType::kQuery, 0, h);
    std::string bad_version(h, sizeof(h));
    bad_version[4] = 42;
    violations.push_back({"bad version", bad_version});

    net::EncodeFrameHeader(net::FrameType::kQuery, net::kMaxPayloadBytes + 1,
                           h);
    violations.push_back({"oversized payload", std::string(h, sizeof(h))});

    // Zero-length payload on a kQuery frame: too short to decode.
    net::EncodeFrameHeader(net::FrameType::kQuery, 0, h);
    violations.push_back({"empty query payload", std::string(h, sizeof(h))});

    // A server->client-only frame type arriving at the server.
    net::EncodeFrameHeader(net::FrameType::kResult, 0, h);
    violations.push_back({"client sent kResult", std::string(h, sizeof(h))});
  }

  for (const Violation& v : violations) {
    Result<net::Socket> raw = net::Socket::Connect("127.0.0.1", server.port());
    if (!raw.ok()) continue;  // Injected fault under the gate.
    Status wrote = raw->WriteFull(v.bytes.data(), v.bytes.size());
    if (!wrote.ok()) continue;
    char rh[net::kFrameHeaderBytes];
    Status read = raw->ReadFull(rh, sizeof(rh));
    if (!read.ok()) continue;  // Fault ate the error frame; survival is next.
    net::FrameHeader header;
    ASSERT_TRUE(net::DecodeFrameHeader(rh, sizeof(rh), net::kMaxPayloadBytes,
                                       &header)
                    .ok())
        << v.name;
    EXPECT_EQ(header.type, net::FrameType::kError) << v.name;
    std::string payload(header.payload_len, '\0');
    if (header.payload_len != 0 &&
        !raw->ReadFull(payload.data(), payload.size()).ok()) {
      continue;
    }
    net::WireError err;
    ASSERT_TRUE(net::DecodeWireError(payload, &err).ok()) << v.name;
    EXPECT_EQ(err.code, StatusCode::kInvalidArgument) << v.name;
    EXPECT_FALSE(err.message.empty()) << v.name;
    // The server closes after an error frame: the next read is EOF.
    bool clean = false;
    EXPECT_FALSE(raw->ReadFull(rh, 1, &clean).ok()) << v.name;
  }

  // Whatever the violations did, the server must still serve.
  net::Client client(TestClientOptions(server.port()));
  Result<net::QueryResponse> resp =
      client.Execute("SELECT O FROM Object_in_Room O");
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_TRUE(resp->status.ok());
  server.Stop();
}

}  // namespace
}  // namespace lyric
