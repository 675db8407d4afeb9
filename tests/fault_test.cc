// Fault-injection layer: spec parsing, deterministic decisions, and the
// contract at every production site — injected failures degrade service
// (recompute, a typed Status) and never corrupt state.

#include "util/fault.h"

#include <gtest/gtest.h>

#include <vector>

#include "constraint/solver_cache.h"
#include "obs/metrics.h"
#include "office/office_db.h"
#include "query/evaluator.h"
#include "storage/serializer.h"

namespace lyric {
namespace {

class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(fault::Configure(""));
    SolverCache::Global().Clear();
  }
  void TearDown() override { ASSERT_TRUE(fault::Configure("")); }
};

// -- Spec parsing ----------------------------------------------------------

TEST_F(FaultTest, AcceptsWellFormedSpecs) {
  EXPECT_TRUE(fault::Configure("solver_cache:0.5"));
  EXPECT_TRUE(fault::Configure("serializer:1.0:42"));
  EXPECT_TRUE(
      fault::Configure("solver_cache:0.25:1,scheduler:0.75:2"));
  EXPECT_TRUE(fault::Configure("alloc:0"));
  EXPECT_TRUE(fault::Configure(""));  // Disables everything.
  EXPECT_FALSE(fault::Enabled());
}

TEST_F(FaultTest, RejectsMalformedSpecsAndStaysOnPreviousConfig) {
  ASSERT_TRUE(fault::Configure("solver_cache:1.0"));
  EXPECT_FALSE(fault::Configure("nocolon"));
  EXPECT_FALSE(fault::Configure(":0.5"));
  EXPECT_FALSE(fault::Configure("site:1.5"));       // prob > 1
  EXPECT_FALSE(fault::Configure("site:-0.1"));      // prob < 0
  EXPECT_FALSE(fault::Configure("site:abc"));       // not a number
  EXPECT_FALSE(fault::Configure("site:nan"));       // not in [0, 1]
  EXPECT_FALSE(fault::Configure("site:0.5:-1"));    // signed seed
  EXPECT_FALSE(fault::Configure("site:0.5:seed"));  // bad seed
  // The last good configuration survives a rejected spec.
  EXPECT_TRUE(fault::Enabled());
  EXPECT_TRUE(fault::Inject(fault::kSiteSolverCache));
}

TEST_F(FaultTest, ProbabilityEndpointsAreExact) {
  ASSERT_TRUE(fault::Configure("always:1.0,never:0"));
  for (int i = 0; i < 64; ++i) {
    EXPECT_TRUE(fault::Inject("always"));
    EXPECT_FALSE(fault::Inject("never"));
  }
  // Unconfigured sites never fire even while others are armed.
  EXPECT_FALSE(fault::Inject("unknown_site"));
}

TEST_F(FaultTest, DecisionsAreDeterministicInSeedAndIndex) {
  auto draw_pattern = [](const std::string& spec) {
    EXPECT_TRUE(fault::Configure(spec));
    std::vector<bool> pattern;
    pattern.reserve(256);
    for (int i = 0; i < 256; ++i) pattern.push_back(fault::Inject("s"));
    return pattern;
  };
  std::vector<bool> a = draw_pattern("s:0.5:42");
  std::vector<bool> b = draw_pattern("s:0.5:42");
  std::vector<bool> c = draw_pattern("s:0.5:43");
  EXPECT_EQ(a, b);  // Same seed replays identically.
  EXPECT_NE(a, c);  // A different seed gives a different pattern.
  // The configured probability is roughly honored (p=0.5 over 256 draws;
  // bounds are loose enough to never flake on a fixed seed).
  size_t fired = 0;
  for (bool hit : a) fired += hit ? 1 : 0;
  EXPECT_GT(fired, 64u);
  EXPECT_LT(fired, 192u);
}

TEST_F(FaultTest, InjectionsAreCountedInTheMetricsRegistry) {
  ASSERT_TRUE(fault::Configure("counted:1.0"));
  obs::Counter& counter =
      obs::Registry::Global().GetCounter("fault.injected.counted");
  uint64_t before = counter.value();
  ASSERT_TRUE(fault::Inject("counted"));
  ASSERT_TRUE(fault::Inject("counted"));
  EXPECT_EQ(counter.value(), before + 2);
}

// -- Production sites ------------------------------------------------------

// A paper query whose answer is known; used to prove fault transparency.
constexpr const char* kQuery =
    "SELECT DSK FROM Object_in_Room O, Desk DSK "
    "WHERE O.catalog_object[DSK] and O.location[L] and "
    "L(x, y) |= (0 < x and x < 20 and 0 < y and y < 10)";

TEST_F(FaultTest, SolverCacheFaultsAreTransparentToResults) {
  Database db;
  ASSERT_TRUE(office::BuildOfficeDatabase(&db).ok());
  Evaluator ev(&db);
  auto clean = ev.Execute(kQuery);
  ASSERT_TRUE(clean.ok()) << clean.status();

  // With every lookup missing and every store dropped, the engine
  // recomputes everything — byte-identical answer, no crash.
  ASSERT_TRUE(fault::Configure("solver_cache:1.0"));
  auto faulted = ev.Execute(kQuery);
  ASSERT_TRUE(faulted.ok()) << faulted.status();
  EXPECT_EQ(faulted->ToString(), clean->ToString());

  // Partial failure (half the operations) is equally transparent.
  ASSERT_TRUE(fault::Configure("solver_cache:0.5:11"));
  auto half = ev.Execute(kQuery);
  ASSERT_TRUE(half.ok()) << half.status();
  EXPECT_EQ(half->ToString(), clean->ToString());
}

TEST_F(FaultTest, SerializerFaultsFailWithCleanStatusAndNoMutation) {
  Database db;
  ASSERT_TRUE(office::BuildOfficeDatabase(&db).ok());
  std::string dump = Serializer::DumpDatabase(db).value();

  ASSERT_TRUE(fault::Configure("serializer:1.0"));
  Database target;
  Status load = Serializer::LoadDatabase(dump, &target);
  EXPECT_FALSE(load.ok());
  // Transport faults are transient by contract: typed kUnavailable so
  // RunWithRetry (exec/scheduler.h) knows a repeat attempt can succeed.
  EXPECT_TRUE(load.IsUnavailable()) << load;
  // The target database is untouched by the failed load.
  EXPECT_EQ(target.ObjectCount(), 0u);
  EXPECT_TRUE(target.schema().ClassNames().empty());

  Status save = Serializer::SaveToFile(db, "/tmp/lyric_fault_test.dump");
  EXPECT_FALSE(save.ok());
  EXPECT_TRUE(save.IsUnavailable()) << save;

  // Disarmed, the same payload loads fine — the failure was injected,
  // not a corruption left behind.
  ASSERT_TRUE(fault::Configure(""));
  EXPECT_TRUE(Serializer::LoadDatabase(dump, &target).ok());
  EXPECT_EQ(target.ObjectCount(), db.ObjectCount());
}

TEST_F(FaultTest, TraceFaultDropsSpansNeverResults) {
  Database db;
  ASSERT_TRUE(office::BuildOfficeDatabase(&db).ok());
  EvalOptions traced;
  traced.collect_trace = true;
  Evaluator ev(&db, traced);
  auto clean = ev.Execute(kQuery);
  ASSERT_TRUE(clean.ok()) << clean.status();

  // Every span construction fails: the trace is silently thinner (spans
  // drop, children re-parent) and the answer is untouched.
  ASSERT_TRUE(fault::Configure("trace:1.0"));
  auto untraced = ev.Execute(kQuery);
  ASSERT_TRUE(untraced.ok()) << untraced.status();
  EXPECT_EQ(untraced->ToString(), clean->ToString());

  ASSERT_TRUE(fault::Configure("trace:0.5:7"));
  auto partial = ev.Execute(kQuery);
  ASSERT_TRUE(partial.ok()) << partial.status();
  EXPECT_EQ(partial->ToString(), clean->ToString());
}

TEST_F(FaultTest, SchedulerFaultShedsWithTypedStatusAndRetryRecovers) {
  Database db;
  ASSERT_TRUE(office::BuildOfficeDatabase(&db).ok());
  Evaluator ev(&db);
  auto clean = ev.Execute(kQuery);
  ASSERT_TRUE(clean.ok()) << clean.status();

  // A forced queue-full shed surfaces as the transient typed status with
  // a retry-after hint — never a crash, never a partial result.
  ASSERT_TRUE(fault::Configure("scheduler:1.0"));
  auto shed = ev.Execute(kQuery);
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsUnavailable()) << shed.status();
  EXPECT_GT(shed.status().retry_after_ms(), 0u);

  // With a retry policy the evaluator absorbs probabilistic sheds and the
  // caller sees only the byte-identical success.
  ASSERT_TRUE(fault::Configure("scheduler:0.5:3"));
  EvalOptions retrying;
  exec::RetryPolicy policy;
  policy.max_retries = 32;
  policy.base_backoff_ms = 1;
  policy.max_backoff_ms = 2;
  retrying.retry = policy;
  Evaluator retry_ev(&db, retrying);
  auto recovered = retry_ev.Execute(kQuery);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(recovered->ToString(), clean->ToString());
}

}  // namespace
}  // namespace lyric
