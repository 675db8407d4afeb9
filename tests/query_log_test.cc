// Tests for the per-query event log: record JSON shape, the bounded ring,
// JSONL sink rotation, and the evaluator integration that fills one
// record per executed query (docs/OBSERVABILITY.md).

#include <gtest/gtest.h>

#include <unistd.h>

#include <barrier>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/query_log.h"
#include "office/office_db.h"
#include "query/evaluator.h"
#include "util/fault.h"

namespace lyric {
namespace {

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool FileExists(const std::string& path) {
  return std::ifstream(path).good();
}

std::string TempPath(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  std::string base = dir != nullptr && *dir != '\0' ? dir : "/tmp";
  if (base.back() != '/') base += '/';
  return base + name + "." + std::to_string(::getpid());
}

class QueryLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::QueryLog::Global().ConfigureSink("", 0);
    obs::QueryLog::Global().SetCapacityForTesting(256);
    obs::QueryLog::Global().ClearForTesting();
  }
  void TearDown() override {
    ASSERT_TRUE(fault::Configure(""));
    obs::QueryLog::Global().ConfigureSink("", 0);
    obs::QueryLog::Global().set_slow_ms(0);
    obs::QueryLog::Global().ClearForTesting();
  }
};

TEST_F(QueryLogTest, HashIsStableFnv1a) {
  // FNV-1a 64-bit test vectors; the hash keys dashboards, so it must
  // never silently change.
  EXPECT_EQ(obs::HashQueryText(""), 14695981039346656037ull);
  EXPECT_EQ(obs::HashQueryText("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(obs::HashQueryText("SELECT X FROM Desk X"),
            obs::HashQueryText("SELECT X FROM Desk X"));
  EXPECT_NE(obs::HashQueryText("SELECT X FROM Desk X"),
            obs::HashQueryText("SELECT Y FROM Desk Y"));
}

TEST_F(QueryLogTest, RecordJsonShape) {
  obs::QueryLogRecord rec;
  rec.query = "SELECT \"X\" FROM Desk X";
  rec.query_hash = 0xabcull;
  rec.status = "ok";
  rec.admission = "direct";
  rec.duration_ns = 12345;
  rec.rows = 2;
  rec.truncated = true;
  std::string json = rec.ToJson();
  // Quotes in the query text must be escaped — the record is one JSONL
  // line, so a raw quote would corrupt the whole sink.
  EXPECT_NE(json.find("\"query\": \"SELECT \\\"X\\\" FROM Desk X\""),
            std::string::npos);
  EXPECT_NE(json.find("\"query_hash\": \"0000000000000abc\""),
            std::string::npos);
  EXPECT_NE(json.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(json.find("\"admission\": \"direct\""), std::string::npos);
  EXPECT_NE(json.find("\"duration_ns\": 12345"), std::string::npos);
  EXPECT_NE(json.find("\"rows\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"truncated\": true"), std::string::npos);
  EXPECT_NE(json.find("\"slow\": false"), std::string::npos);
  // No stage profile attached -> the key is omitted entirely.
  EXPECT_EQ(json.find("\"stages\""), std::string::npos);
  rec.stages = "query 1ms\n  parse 0.1ms";
  EXPECT_NE(rec.ToJson().find("\"stages\": \"query 1ms\\n  parse 0.1ms\""),
            std::string::npos);
}

TEST_F(QueryLogTest, RingEvictsOldestAndStampsSeq) {
  obs::QueryLog& log = obs::QueryLog::Global();
  log.SetCapacityForTesting(4);
  const uint64_t total_before = log.total_appended();
  for (int i = 0; i < 10; ++i) {
    obs::QueryLogRecord rec;
    rec.query = "q" + std::to_string(i);
    log.Append(std::move(rec));
  }
  std::vector<obs::QueryLogRecord> recent = log.Recent(100);
  ASSERT_EQ(recent.size(), 4u);  // bounded by capacity
  EXPECT_EQ(recent.front().query, "q6");  // oldest surviving
  EXPECT_EQ(recent.back().query, "q9");
  // Seq is monotonic and survives eviction; unix_ms is stamped.
  for (size_t i = 1; i < recent.size(); ++i) {
    EXPECT_EQ(recent[i].seq, recent[i - 1].seq + 1);
  }
  EXPECT_GT(recent.back().unix_ms, 0u);
  EXPECT_EQ(log.total_appended(), total_before + 10);
  EXPECT_EQ(log.Recent(2).size(), 2u);
  EXPECT_EQ(log.Recent(2).front().query, "q8");
}

TEST_F(QueryLogTest, LongQueryTextIsTruncated) {
  obs::QueryLog& log = obs::QueryLog::Global();
  obs::QueryLogRecord rec;
  rec.query = std::string(5000, 'x');
  log.Append(std::move(rec));
  EXPECT_EQ(log.Recent(1).front().query.size(), 200u);
}

TEST_F(QueryLogTest, SinkWritesJsonlAndRotates) {
  const std::string path = TempPath("lyric_qlog");
  const std::string rotated = path + ".1";
  std::remove(path.c_str());
  std::remove(rotated.c_str());
  obs::QueryLog& log = obs::QueryLog::Global();
  // Each record line is ~260 bytes; a 1000-byte cap rotates after a few.
  log.ConfigureSink(path, 1000);
  for (int i = 0; i < 12; ++i) {
    obs::QueryLogRecord rec;
    rec.query = "sink query " + std::to_string(i);
    rec.status = "ok";
    log.Append(std::move(rec));
  }
  // The live file stayed under the cap, the rotated generation exists,
  // and every line in both is one JSON object.
  ASSERT_TRUE(FileExists(path));
  EXPECT_TRUE(FileExists(rotated));
  for (const std::string& p : {path, rotated}) {
    std::istringstream lines(ReadAll(p));
    std::string line;
    size_t n = 0;
    while (std::getline(lines, line)) {
      ASSERT_FALSE(line.empty());
      EXPECT_EQ(line.front(), '{') << p;
      EXPECT_EQ(line.back(), '}') << p;
      EXPECT_NE(line.find("\"seq\""), std::string::npos) << p;
      ++n;
    }
    EXPECT_GT(n, 0u) << p;
  }
  EXPECT_LE(ReadAll(path).size(), 1000u);
  log.ConfigureSink("", 0);
  std::remove(path.c_str());
  std::remove(rotated.c_str());
}

TEST_F(QueryLogTest, EvaluatorAppendsOneRecordPerQuery) {
  Database db;
  auto ids = office::BuildOfficeDatabase(&db);
  ASSERT_TRUE(ids.ok()) << ids.status();
  obs::QueryLog& log = obs::QueryLog::Global();
  const uint64_t before = log.total_appended();

  Evaluator ev(&db);
  auto r = ev.Execute(std::string("SELECT X FROM Desk X"));
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(log.total_appended(), before + 1);
  obs::QueryLogRecord rec = log.Recent(1).front();
  EXPECT_EQ(rec.query, "SELECT X FROM Desk X");
  EXPECT_EQ(rec.query_hash, obs::HashQueryText("SELECT X FROM Desk X"));
  EXPECT_EQ(rec.status, "ok");
  EXPECT_EQ(rec.rows, r->size());
  EXPECT_GT(rec.duration_ns, 0u);
  EXPECT_FALSE(rec.truncated);
  // No scheduler limits configured: admission is a direct grant.
  EXPECT_EQ(rec.admission, "direct");
  EXPECT_EQ(rec.governor, "");

  // A parse failure still logs, with the error category as the status.
  auto bad = ev.Execute(std::string("SELEC nonsense"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(log.total_appended(), before + 2);
  rec = log.Recent(1).front();
  EXPECT_NE(rec.status, "ok");
  EXPECT_EQ(rec.rows, 0u);
  // It never reached admission.
  EXPECT_EQ(rec.admission, "off");
  EXPECT_EQ(rec.retries, 0u);
}

TEST_F(QueryLogTest, AdmissionFactsAgreeBetweenResultAndRecord) {
  Database db;
  auto ids = office::BuildOfficeDatabase(&db);
  ASSERT_TRUE(ids.ok()) << ids.status();
  obs::QueryLog& log = obs::QueryLog::Global();
  const std::string query = "SELECT X FROM Desk X";
  exec::RetryPolicy policy;
  policy.max_retries = 32;
  policy.base_backoff_ms = 1;
  policy.max_backoff_ms = 2;
  EvalOptions opts;
  opts.retry = policy;

  // Seeded sheds absorbed by the retry loop: the result and its record
  // carry the same retry count, and the mode of the attempt that ran.
  ASSERT_TRUE(fault::Configure("scheduler:0.5:3"));
  Evaluator ev(&db, opts);
  uint32_t total_retries = 0;
  for (int i = 0; i < 8; ++i) {
    auto r = ev.Execute(query);
    ASSERT_TRUE(r.ok()) << r.status();
    const obs::QueryLogRecord rec = log.Recent(1).front();
    EXPECT_EQ(rec.retries, r->admission().retries);
    EXPECT_EQ(rec.admission, r->admission().mode);
    EXPECT_EQ(rec.admission, "direct");
    EXPECT_EQ(rec.queue_wait_ns, r->admission().queue_wait_ns);
    total_retries += r->admission().retries;
  }
  EXPECT_GT(total_retries, 0u) << "the seeded fault never shed";

  // Every attempt shed: the record says "shed" after max_retries retries.
  ASSERT_TRUE(fault::Configure("scheduler:1.0"));
  policy.max_retries = 3;
  opts.retry = policy;
  Evaluator shed_ev(&db, opts);
  auto shed = shed_ev.Execute(query);
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsUnavailable()) << shed.status();
  const obs::QueryLogRecord rec = log.Recent(1).front();
  EXPECT_EQ(rec.admission, "shed");
  EXPECT_EQ(rec.retries, 3u);
  EXPECT_EQ(rec.status, StatusCodeToString(StatusCode::kUnavailable));
}

// A record's cache traffic is its own query's lookups: two queries with
// different solver work, run at the same moment again and again, each
// log exactly the hits they make alone.
TEST_F(QueryLogTest, CacheTrafficCountsOnlyTheQuerysOwnLookups) {
  Database db;
  auto ids = office::BuildOfficeDatabase(&db);
  ASSERT_TRUE(ids.ok()) << ids.status();
  obs::QueryLog& log = obs::QueryLog::Global();
  const std::string queries[2] = {
      "SELECT CO, ((u, v) | E and D and x = 6 and y = 4) "
      "FROM Office_Object CO WHERE CO.extent[E] and CO.translation[D]",
      "SELECT O FROM Object_in_Room O "
      "WHERE O.location[L] and L(x, y) |= x <= 12",
  };

  // Warm the cache; a second run alone then hits on every lookup.
  uint64_t solo_hits[2];
  for (int q = 0; q < 2; ++q) {
    Evaluator ev(&db);
    ASSERT_TRUE(ev.Execute(queries[q]).ok());
    ASSERT_TRUE(ev.Execute(queries[q]).ok());
    const obs::QueryLogRecord rec = log.Recent(1).front();
    ASSERT_EQ(rec.cache_misses, 0u) << queries[q];
    solo_hits[q] = rec.cache_hits;
  }
  ASSERT_GT(solo_hits[0], 0u);
  ASSERT_GT(solo_hits[1], 0u);
  ASSERT_NE(solo_hits[0], solo_hits[1]);

  constexpr int kRounds = 100;
  std::barrier start(2);
  std::vector<std::thread> threads;
  for (int q = 0; q < 2; ++q) {
    threads.emplace_back([&, q] {
      Evaluator ev(&db);
      for (int round = 0; round < kRounds; ++round) {
        start.arrive_and_wait();
        EXPECT_TRUE(ev.Execute(queries[q]).ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const std::vector<obs::QueryLogRecord> records = log.Recent(2 * kRounds);
  ASSERT_EQ(records.size(), 2u * kRounds);
  for (const obs::QueryLogRecord& rec : records) {
    const int q = rec.query_hash == obs::HashQueryText(queries[0]) ? 0 : 1;
    EXPECT_EQ(rec.query_hash, obs::HashQueryText(queries[q]));
    EXPECT_EQ(rec.cache_misses, 0u) << "record " << rec.seq;
    EXPECT_EQ(rec.cache_hits, solo_hits[q]) << "record " << rec.seq;
  }
}

TEST_F(QueryLogTest, SlowThresholdPromotesStageProfile) {
  Database db;
  auto ids = office::BuildOfficeDatabase(&db);
  ASSERT_TRUE(ids.ok()) << ids.status();
  obs::QueryLog& log = obs::QueryLog::Global();

  // Threshold 0 disables promotion entirely.
  {
    log.set_slow_ms(0);
    Evaluator ev(&db);
    ASSERT_TRUE(ev.Execute(std::string("SELECT X FROM Desk X")).ok());
    obs::QueryLogRecord rec = log.Recent(1).front();
    EXPECT_FALSE(rec.slow);
    EXPECT_TRUE(rec.stages.empty());
  }
  // A 1ms threshold against a 41x41 cross product with per-binding
  // simplex work: comfortably slow on any machine, so the promotion is
  // deterministic.
  {
    ASSERT_TRUE(office::AddScaledDesks(&db, 40, /*seed=*/7).ok());
    log.set_slow_ms(1);
    Evaluator ev(&db);
    ASSERT_TRUE(
        ev.Execute(std::string("SELECT A, B FROM Object_in_Room A, "
                               "Object_in_Room B WHERE A.location[B]"))
            .ok());
    obs::QueryLogRecord rec = log.Recent(1).front();
    ASSERT_TRUE(rec.slow) << "cross-product query finished under 1ms?";
    // The promoted profile names the evaluation stages.
    EXPECT_NE(rec.stages.find("query"), std::string::npos);
    EXPECT_NE(rec.stages.find("from"), std::string::npos);
  }
}

}  // namespace
}  // namespace lyric
