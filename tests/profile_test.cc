// End-to-end observability tests: QueryProfile attachment, span tree
// shape, counter deltas on a real §4.1 paper query, counter monotonicity
// across executions, and EvalOptions::max_rows truncation.

#include <gtest/gtest.h>

#include <string>

#include "constraint/solver_cache.h"
#include "obs/metrics.h"
#include "office/office_db.h"
#include "query/evaluator.h"

namespace lyric {
namespace {

// The §4.1 global-coordinates query: translate every office object's
// extent to room coordinates. Exercises FROM enumeration, path-expression
// WHERE conjuncts, and CST construction with FM projection + LP-based
// canonicalization in SELECT.
constexpr char kGlobalCoordinatesQuery[] =
    "SELECT O, ((u, v) | E and D and L) "
    "FROM Object_in_Room O, Office_Object CO "
    "WHERE O.catalog_object[CO] and O.location[L] and CO.extent[E] and "
    "CO.translation[D]";

class ProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Cold cache: an earlier test's cached verdicts would hide the
    // solver work the counter tests attribute.
    SolverCache::Global().Clear();
    ASSERT_TRUE(office::BuildOfficeDatabase(&db_).ok());
  }

  Database db_;
};

TEST_F(ProfileTest, NoProfileByDefault) {
  Evaluator ev(&db_);
  auto r = ev.Execute(kGlobalCoordinatesQuery);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->profile(), nullptr);
}

TEST_F(ProfileTest, ProfileAttachedWithSpanTree) {
  EvalOptions opts;
  opts.collect_trace = true;
  Evaluator ev(&db_, opts);
  auto r = ev.Execute(kGlobalCoordinatesQuery);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_NE(r->profile(), nullptr);
  EXPECT_GT(r->size(), 0u);

  const obs::SpanNode& root = r->profile()->trace.root();
  EXPECT_EQ(root.name, "query");
  EXPECT_NE(root.FindChild("parse"), nullptr);
  EXPECT_NE(root.FindChild("from"), nullptr);
  // One WHERE span per enumerated binding, one SELECT span per surviving
  // binding; every row in the result came from a surviving binding.
  EXPECT_GE(root.CountChildren("where"), root.CountChildren("select"));
  EXPECT_GE(root.CountChildren("select"), r->size());
  EXPECT_GT(root.dur_ns, 0u);
}

TEST_F(ProfileTest, CounterDeltasAttributeEngineWork) {
  EvalOptions opts;
  opts.collect_trace = true;
  Evaluator ev(&db_, opts);
  auto r = ev.Execute(kGlobalCoordinatesQuery);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_NE(r->profile(), nullptr);

  obs::MetricsSnapshot delta = r->profile()->CounterDeltas();
  // Projecting the extent formula runs Fourier-Motzkin; canonicalizing
  // the result runs redundancy LPs through the simplex.
  EXPECT_GE(delta.counters["simplex.lp_solves"], 1u);
  EXPECT_GE(delta.counters["fm.vars_eliminated"], 1u);
  EXPECT_GE(delta.counters["evaluator.queries"], 1u);
  EXPECT_GE(delta.counters["evaluator.rows_emitted"], r->size());
  EXPECT_GE(delta.counters["evaluator.cst_constructed"], 1u);

  // And the human-readable rendering mentions the stages and counters.
  std::string text = r->profile()->ToString();
  EXPECT_NE(text.find("query"), std::string::npos);
  EXPECT_NE(text.find("simplex.lp_solves"), std::string::npos);
}

TEST_F(ProfileTest, ChromeTraceJsonIsEmitted) {
  EvalOptions opts;
  opts.collect_trace = true;
  Evaluator ev(&db_, opts);
  auto r = ev.Execute(kGlobalCoordinatesQuery);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_NE(r->profile(), nullptr);
  std::string json = r->profile()->ToChromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"query\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
}

TEST_F(ProfileTest, CountersAreMonotonicAcrossExecutions) {
  Evaluator ev(&db_);
  ASSERT_TRUE(ev.Execute(kGlobalCoordinatesQuery).ok());
  obs::MetricsSnapshot first = obs::Registry::Global().Snapshot();
  ASSERT_TRUE(ev.Execute(kGlobalCoordinatesQuery).ok());
  obs::MetricsSnapshot second = obs::Registry::Global().Snapshot();

  uint64_t q1 = first.counters["evaluator.queries"];
  uint64_t q2 = second.counters["evaluator.queries"];
  EXPECT_EQ(q2, q1 + 1);
  EXPECT_GE(second.counters["simplex.lp_solves"],
            first.counters["simplex.lp_solves"]);
  EXPECT_GT(second.counters["evaluator.bindings_enumerated"],
            first.counters["evaluator.bindings_enumerated"]);
}

TEST_F(ProfileTest, MaxRowsTruncatesAndCounts) {
  ASSERT_TRUE(office::AddScaledDesks(&db_, /*num_desks=*/5, /*seed=*/7).ok());
  obs::MetricsSnapshot before = obs::Registry::Global().Snapshot();

  EvalOptions opts;
  opts.max_rows = 1;
  Evaluator ev(&db_, opts);
  auto r = ev.Execute("SELECT O FROM Object_in_Room O");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->size(), 1u);
  EXPECT_TRUE(r->truncated());

  obs::MetricsSnapshot delta =
      obs::Registry::Global().Snapshot().DeltaSince(before);
  EXPECT_GE(delta.counters["evaluator.rows_truncated"], 1u);
}

TEST_F(ProfileTest, NoTruncationUnderLimit) {
  Evaluator ev(&db_);
  auto r = ev.Execute("SELECT O FROM Object_in_Room O");
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_FALSE(r->truncated());
}

}  // namespace
}  // namespace lyric
