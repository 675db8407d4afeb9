// Cross-subsystem concurrency stress (ISSUE 7): hammer every lock in the
// docs/CONCURRENCY.md hierarchy at once — governed query execution
// (scheduler, solver cache, variable interner), Prometheus exposition
// (registry), query-log appends with a rotating sink, and governed trips
// racing wholesale cache Clear(). Each query's CancellationToken is
// owned by the thread evaluating it, so many tokens trip at once with
// no sharing. With LYRIC_RANK_CHECK on (the default) any lock-order
// inversion on any interleaving aborts the binary; under the CI TSan job
// the same schedule is race-checked. Answers from governed runs must
// still match a serial baseline.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "constraint/solver_cache.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "office/office_db.h"
#include "query/evaluator.h"

namespace lyric {
namespace {

// §4.1 worked examples — read-mostly, shared Database across all threads.
const char* kPaperQueries[] = {
    "SELECT Y FROM Desk X WHERE X.drawer.extent[Y]",
    "SELECT CO, ((u, v) | E(w, z) and D(w, z, x, y, u, v) and x = 6 and "
    "y = 4) FROM Office_Object CO WHERE CO.extent[E] and CO.translation[D]",
    "SELECT O FROM Object_in_Room O "
    "WHERE O.location[L] and L(x, y) |= x <= 12",
    "SELECT CO, ((u, v) | CO.extent and CO.translation and x = 6 and y = 4) "
    "FROM Office_Object CO",
};

class ConcurrencyStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ids = office::BuildOfficeDatabase(&db_);
    ASSERT_TRUE(ids.ok()) << ids.status();
    SolverCache::Global().Clear();
    obs::QueryLog::Global().ClearForTesting();
  }
  void TearDown() override {
    SolverCache::Global().Clear();
    // Detach the sink so later tests in other binaries never inherit it.
    obs::QueryLog::Global().ConfigureSink("", 0);
    obs::QueryLog::Global().ClearForTesting();
  }

  Database db_;
};

TEST_F(ConcurrencyStressTest, ExecuteExportLogAndChurnInParallel) {
  // Serial baseline answers first, before any contention.
  std::vector<std::string> expected;
  for (const char* q : kPaperQueries) {
    Evaluator ev(&db_);
    auto r = ev.Execute(q);
    ASSERT_TRUE(r.ok()) << q << "\n -> " << r.status();
    expected.push_back(r->ToString());
  }
  SolverCache::Global().Clear();

  // A deliberately tiny rotation budget: every few appends the sink
  // rolls over, so rotation runs while other threads are mid-append.
  const std::string sink_path =
      std::string(::testing::TempDir()) + "/concurrency_stress_qlog.jsonl";
  obs::QueryLog::Global().ConfigureSink(sink_path, 4096);
  obs::QueryLog::Global().SetCapacityForTesting(16);

  std::atomic<bool> stop{false};
  std::atomic<int> wrong_answers{0};
  std::atomic<uint64_t> governed_ok{0};
  std::atomic<uint64_t> tripped{0};

  // 1) Governed executors: correct answers required, under deadline-only
  //    limits that never trip.
  std::vector<std::thread> workers;
  constexpr int kExecutors = 4;
  for (int id = 0; id < kExecutors; ++id) {
    workers.emplace_back([&, id] {
      EvalOptions opts;
      opts.deadline_ms = 60000;
      Evaluator ev(&db_, opts);
      int i = id;
      while (!stop.load(std::memory_order_relaxed)) {
        const int q = i++ % 4;
        auto r = ev.Execute(kPaperQueries[q]);
        if (!r.ok() || r->ToString() != expected[q]) {
          wrong_answers.fetch_add(1);
          return;
        }
        governed_ok.fetch_add(1);
      }
    });
  }

  // 2) Trip churners: entailment into a box of inequalities forces
  //    simplex runs, and a one-pivot budget trips the governor on the
  //    first one, mid-way through cache lookups and stores the executors
  //    share. Trips surface as a degraded result, not an error, and store
  //    nothing.
  constexpr int kChurners = 2;
  for (int id = 0; id < kChurners; ++id) {
    workers.emplace_back([&] {
      EvalOptions opts;
      opts.max_pivots = 1;
      Evaluator ev(&db_, opts);
      while (!stop.load(std::memory_order_relaxed)) {
        auto r = ev.Execute(
            "SELECT DSK FROM Desk DSK WHERE DSK.extent[E] and "
            "E(w, z) |= w <= 4");
        if (!r.ok() || !r->governor_status().ok()) tripped.fetch_add(1);
      }
    });
  }

  // 3) Prometheus exposition: walks the whole registry (name maps under
  //    the registry lock) while executors mint counters under it.
  workers.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::string body = obs::Registry::Global().ExportPrometheus();
      if (body.empty()) {
        wrong_answers.fetch_add(1);
        return;
      }
      std::this_thread::yield();
    }
  });

  // 4) Query-log readers: Recent() copies the ring under the log lock
  //    while every finished query appends (and rotates the sink).
  workers.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto recent = obs::QueryLog::Global().Recent(16);
      if (recent.size() > 16) {
        wrong_answers.fetch_add(1);
        return;
      }
      std::this_thread::yield();
    }
  });

  // 5) Cache churn: wholesale Clear() sweeps every shard in sequence
  //    while lookups and stores race against it.
  workers.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      SolverCache::Global().Clear();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  std::this_thread::sleep_for(std::chrono::seconds(2));
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : workers) th.join();

  EXPECT_EQ(wrong_answers.load(), 0)
      << "a governed query returned a wrong answer (or an export/read "
         "invariant broke) under contention";
  EXPECT_GT(governed_ok.load(), 0u);
  EXPECT_GT(tripped.load(), 0u) << "the one-pivot budget never tripped — "
                                   "the trip churners did not run";

  // The storm really flowed through the log and the registry.
  EXPECT_GT(obs::QueryLog::Global().total_appended(),
            governed_ok.load() / 2);
  std::string body = obs::Registry::Global().ExportPrometheus();
  EXPECT_NE(body.find("lyric_evaluator_queries"), std::string::npos) << body;

  std::remove(sink_path.c_str());
}

TEST_F(ConcurrencyStressTest, SinkRotationSurvivesConcurrentAppends) {
  // Focused rotation hammer: 8 appender threads against a 1 KiB sink
  // budget force a rotation roughly every 4 records per thread batch.
  const std::string sink_path =
      std::string(::testing::TempDir()) + "/rotation_stress_qlog.jsonl";
  obs::QueryLog::Global().ConfigureSink(sink_path, 1024);

  const uint64_t before = obs::QueryLog::Global().total_appended();
  constexpr int kThreads = 8;
  constexpr int kAppends = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kAppends; ++i) {
        obs::QueryLogRecord rec;
        rec.query = "SELECT Y FROM Desk X WHERE X.drawer.extent[Y]";
        rec.status = "ok";
        rec.rows = static_cast<uint64_t>(t);
        rec.duration_ns = static_cast<uint64_t>(i) * 1000;
        obs::QueryLog::Global().Append(rec);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(obs::QueryLog::Global().total_appended() - before,
            static_cast<uint64_t>(kThreads) * kAppends);
  auto recent = obs::QueryLog::Global().Recent(64);
  ASSERT_FALSE(recent.empty());
  // Sequence numbers stay strictly increasing through rotations.
  for (size_t i = 1; i < recent.size(); ++i) {
    EXPECT_EQ(recent[i].seq, recent[i - 1].seq + 1);
  }

  std::remove(sink_path.c_str());
  std::remove((sink_path + ".1").c_str());
}

}  // namespace
}  // namespace lyric
