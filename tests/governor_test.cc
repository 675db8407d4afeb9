// Resource-governed query execution: deadlines and memory budgets trip
// with typed statuses and partial-progress diagnostics, and never leave
// the engine (Database, SolverCache) in a state that corrupts later
// queries. A Figure-2 paper query under a tiny deadline returns
// kDeadlineExceeded, and an adversarial DNF-blowup query trips the memory
// budget with kResourceExhausted, charged before the product is built,
// instead of exhausting memory.

#include "exec/governor.h"

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <string>
#include <thread>

#include "constraint/solver_cache.h"
#include "obs/metrics.h"
#include "obs/query_context.h"
#include "office/office_db.h"
#include "query/evaluator.h"
#include "util/fault.h"

namespace lyric {
namespace {

using exec::CancellationToken;
using exec::GovernorLimits;
using exec::GovernorReport;
using exec::LimitKind;

// Q3 from §4.1 — the drawer-area query on the Figure 2 database; the
// heaviest of the paper's worked examples (translation composition plus
// projection).
constexpr const char* kFigure2Query =
    "SELECT O, ((u, v) | D(w, z, x, y, u, v) and "
    "  DD(w1, z1, x1, y1, u1, v1) and w = u1 and z = v1 and "
    "  DC(p, q) and DE(w1, z1) and L(x, y)) "
    "FROM Object_in_Room O, Desk DSK "
    "WHERE O.location[L] and O.catalog_object[DSK] and "
    "  DSK.translation[D] and DSK.drawer_center[DC] and "
    "  DSK.drawer.translation[DD] and DSK.drawer.extent[DE]";

// An entailment over the standard desk's extent, a box of inequalities,
// so answering it takes simplex pivots and tableaux (one row: the box
// lies within w <= 4).
constexpr const char* kExtentEntailment =
    "SELECT DSK FROM Desk DSK WHERE DSK.extent[E] and E(w, z) |= w <= 4";

class GovernorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(fault::Configure(""));
    SolverCache::Global().Clear();
    auto ids = office::BuildOfficeDatabase(&db_);
    ASSERT_TRUE(ids.ok()) << ids.status();
  }

  void TearDown() override { ASSERT_TRUE(fault::Configure("")); }

  // Runs `text` with the given options; the query-level Result must be OK
  // (a governor trip is reported on the ResultSet, not as an error).
  ResultSet Run(const std::string& text, const EvalOptions& opts) {
    Evaluator ev(&db_, opts);
    auto r = ev.Execute(text);
    EXPECT_TRUE(r.ok()) << text << "\n -> " << r.status();
    return r.ok() ? *r : ResultSet();
  }

  Database db_;
};

// -- CancellationToken unit behavior ---------------------------------------

TEST_F(GovernorTest, UntrippedTokenReportsOk) {
  GovernorLimits limits;
  limits.memory_budget = 100;
  CancellationToken token(limits);
  EXPECT_FALSE(token.stopped());
  EXPECT_TRUE(token.Check("test.site").ok());
  EXPECT_TRUE(token.ToStatus().ok());
  EXPECT_EQ(token.tripped_kind(), LimitKind::kNone);
}

TEST_F(GovernorTest, MemoryTripIsStickyWithFirstSite) {
  GovernorLimits limits;
  limits.memory_budget = 10;
  CancellationToken token(limits);
  EXPECT_FALSE(token.AccountMemory(10, "site.a"));  // Exactly at the budget.
  EXPECT_TRUE(token.AccountMemory(1, "site.b"));    // Over.
  EXPECT_TRUE(token.stopped());
  EXPECT_EQ(token.tripped_kind(), LimitKind::kMemory);
  Status s = token.ToStatus();
  EXPECT_TRUE(s.IsResourceExhausted());
  EXPECT_NE(s.message().find("site.b"), std::string::npos);
  // Later trips at other sites do not overwrite the first record.
  token.AccountMemory(5, "site.c");
  EXPECT_NE(token.ToStatus().message().find("site.b"), std::string::npos);
  // Pivots are still counted for the report, and see the trip.
  EXPECT_TRUE(token.AccountPivots(4));
  GovernorReport report = token.Report();
  EXPECT_EQ(report.tripped, LimitKind::kMemory);
  EXPECT_EQ(report.site, "site.b");
  EXPECT_EQ(report.memory_used, 16u);
  EXPECT_EQ(report.pivots_used, 4u);
}

TEST_F(GovernorTest, MemoryBudgetTripsAsResourceExhausted) {
  GovernorLimits limits;
  limits.memory_budget = 64;
  CancellationToken token(limits);
  EXPECT_TRUE(token.AccountMemory(65, "mem.site"));
  EXPECT_EQ(token.tripped_kind(), LimitKind::kMemory);
  EXPECT_TRUE(token.ToStatus().IsResourceExhausted());

  // Pivots are counted, never capped: no number of them trips a token.
  CancellationToken token2(limits);
  EXPECT_FALSE(token2.AccountPivots(uint64_t{1} << 40));
  EXPECT_EQ(token2.tripped_kind(), LimitKind::kNone);
  EXPECT_TRUE(token2.ToStatus().ok());
}

TEST_F(GovernorTest, ZeroDeadlineTripsImmediately) {
  GovernorLimits limits;
  limits.deadline_ms = 0;
  CancellationToken token(limits);
  EXPECT_TRUE(token.CheckDeadline("deadline.site"));
  EXPECT_EQ(token.tripped_kind(), LimitKind::kDeadline);
  EXPECT_TRUE(token.ToStatus().IsDeadlineExceeded());
  EXPECT_TRUE(token.Check("later.site").IsDeadlineExceeded());
}

TEST_F(GovernorTest, ShortDeadlineExpiresOnTheClock) {
  GovernorLimits limits;
  limits.deadline_ms = 1;
  CancellationToken token(limits);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(token.CheckDeadline("deadline.site"));
  EXPECT_TRUE(token.ToStatus().IsDeadlineExceeded());
  EXPECT_GE(token.Report().elapsed_ms, 1u);
}

TEST_F(GovernorTest, HugeDeadlinesSaturateInsteadOfTripping) {
  // A deadline past what the clock can hold clamps to "never": it must
  // not wrap into the past (UINT64_MAX) or overflow the nanosecond
  // conversion (1 << 62), and so never trips sooner than a smaller one.
  for (uint64_t ms :
       {std::numeric_limits<uint64_t>::max(), uint64_t{1} << 62}) {
    GovernorLimits limits;
    limits.deadline_ms = ms;
    CancellationToken token(limits);
    EXPECT_FALSE(token.CheckDeadline("deadline.site")) << ms;
    EXPECT_TRUE(token.Check("later.site").ok()) << ms;
    EXPECT_EQ(token.tripped_kind(), LimitKind::kNone) << ms;
  }
}

TEST_F(GovernorTest, ScopesNestAndRestore) {
  EXPECT_EQ(exec::CurrentToken(), nullptr);
  GovernorLimits limits;
  limits.memory_budget = 1;
  CancellationToken outer(limits);
  CancellationToken inner(limits);
  obs::QueryContext outer_context;
  outer_context.token = &outer;
  obs::QueryContext inner_context;
  inner_context.token = &inner;
  {
    obs::QueryContextScope outer_scope(&outer_context);
    EXPECT_EQ(exec::CurrentToken(), &outer);
    {
      obs::QueryContextScope inner_scope(&inner_context);
      EXPECT_EQ(exec::CurrentToken(), &inner);
      // The kernel hooks charge the innermost query's token.
      EXPECT_TRUE(exec::AccountKernelMemory(2, "inner.site"));
    }
    EXPECT_EQ(exec::CurrentToken(), &outer);
    EXPECT_FALSE(exec::CancellationRequested());
  }
  EXPECT_EQ(exec::CurrentToken(), nullptr);
  EXPECT_EQ(inner.tripped_kind(), LimitKind::kMemory);
  EXPECT_EQ(outer.tripped_kind(), LimitKind::kNone);
}

TEST_F(GovernorTest, FreeHooksAreNoOpsWhenUngoverned) {
  ASSERT_EQ(exec::CurrentToken(), nullptr);
  EXPECT_FALSE(exec::AccountPivots(1'000'000));
  EXPECT_FALSE(exec::AccountKernelMemory(1'000'000'000, "x"));
  EXPECT_FALSE(exec::CheckDeadline("x"));
  EXPECT_FALSE(exec::CancellationRequested());
  EXPECT_TRUE(exec::CheckCancellation("x").ok());
}

TEST_F(GovernorTest, ReportToStringNamesEveryCounter) {
  GovernorLimits limits;
  limits.memory_budget = 1;
  CancellationToken token(limits);
  token.AccountPivots(2);
  token.AccountMemory(2, "simplex.tableau");
  std::string text = token.Report().ToString();
  EXPECT_NE(text.find("tripped memory"), std::string::npos);
  EXPECT_NE(text.find("simplex.tableau"), std::string::npos);
  EXPECT_NE(text.find("pivots=2"), std::string::npos);
  EXPECT_NE(text.find("bindings="), std::string::npos);
  EXPECT_NE(text.find("memory=2B"), std::string::npos);
}

// -- End-to-end: Figure-2 paper query under a deadline ---------------------

TEST_F(GovernorTest, DeadlineTripsFigure2QuerySerial) {
  EvalOptions opts;
  opts.deadline_ms = 0;  // Already expired: trips at the first checkpoint.
  ResultSet r = Run(kFigure2Query, opts);
  EXPECT_TRUE(r.governor_status().IsDeadlineExceeded())
      << r.governor_status();
  EXPECT_EQ(r.governor_report().tripped, LimitKind::kDeadline);
  EXPECT_FALSE(r.governor_report().site.empty());
  // Partial progress: fewer rows than the full answer (which has 1).
  EXPECT_LE(r.size(), 1u);
  EXPECT_NE(r.ToString().find("PARTIAL"), std::string::npos);
  EXPECT_NE(r.ToString().find("deadline"), std::string::npos);

  // Engine state is intact: an unlimited evaluation over the same
  // Database and SolverCache still produces the paper's answer.
  ResultSet full = Run(kFigure2Query, EvalOptions{});
  EXPECT_TRUE(full.governor_status().ok());
  EXPECT_EQ(full.size(), 1u);
}

// -- End-to-end: a long `and` chain under a deadline -------------------------

TEST_F(GovernorTest, DeadlineStopsALongAndChainMidBuild) {
  // Folding a 10,000-atom conjunction copies the running conjunction at
  // every step, which takes seconds ungoverned. The deadline is checked
  // once per child, so the build stops soon after it expires.
  std::string chain;
  for (int i = 0; i < 10000; ++i) {
    if (i > 0) chain += " and ";
    chain += "x <= " + std::to_string(i);
  }
  EvalOptions opts;
  opts.deadline_ms = 200;
  const auto start = std::chrono::steady_clock::now();
  ResultSet r = Run("SELECT D FROM Desk D WHERE SAT(" + chain + ")", opts);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(r.governor_status().IsDeadlineExceeded())
      << r.governor_status();
  EXPECT_EQ(r.governor_report().tripped, LimitKind::kDeadline);
  EXPECT_EQ(r.governor_report().site, "formula_builder.and");
  EXPECT_NE(r.ToString().find("PARTIAL"), std::string::npos);
  EXPECT_LT(elapsed, std::chrono::seconds(2));
}

// -- End-to-end: adversarial DNF blowup under a memory budget --------------

// ANDs of ORs: the CST-expression body multiplies out through
// DisjunctiveExistential::And into 3^6 = 729 disjuncts of 6 atoms each
// before simplification can trim anything.
constexpr const char* kBlowupQuery =
    "SELECT DSK, ((u, v) | "
    "  (u = 1 or u = 2 or v = 1) and (u = 3 or u = 4 or v = 2) and "
    "  (u = 5 or u = 6 or v = 3) and (u = 7 or u = 8 or v = 4) and "
    "  (u = 9 or u = 10 or v = 5) and (u = 11 or u = 12 or v = 6)) "
    "FROM Desk DSK";

// `f_first and ... and f_last` with fi = (u = 2i-1 or u = 2i or v = i):
// the product of n such factors has 3^n disjuncts, each of n atoms.
std::string ProductQuery(int first, int last) {
  std::string chain;
  for (int i = first; i <= last; ++i) {
    if (i > first) chain += " and ";
    chain += "(u = " + std::to_string(2 * i - 1) + " or u = " +
             std::to_string(2 * i) + " or v = " + std::to_string(i) + ")";
  }
  return chain;
}

TEST_F(GovernorTest, DnfBlowupTripsMemoryBudget) {
  // The fold's k-th product charges its 3^k disjuncts of k atoms each;
  // 64 KiB covers the first four products but not the fifth.
  EvalOptions opts;
  opts.memory_budget = 64 << 10;
  Evaluator ev(&db_, opts);
  auto r = ev.Execute(kBlowupQuery);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_TRUE(r->governor_status().IsResourceExhausted())
      << r->governor_status();
  EXPECT_EQ(r->governor_report().tripped, LimitKind::kMemory);
  EXPECT_EQ(r->governor_report().site, "existential.and");
  EXPECT_GT(r->governor_report().memory_used, *opts.memory_budget);

  // The same evaluator instance then answers an in-budget query
  // correctly — per-query token state does not leak across Execute calls.
  auto ok = ev.Execute("SELECT Y FROM Desk X WHERE X.drawer.extent[Y]");
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_TRUE(ok->governor_status().ok());
  EXPECT_EQ(ok->size(), 1u);
}

TEST_F(GovernorTest, UnlimitedBlowupQueryStillCompletes) {
  // Sanity check on the adversarial query itself: ungoverned, 729
  // disjuncts are large but computable, and the governor fields stay OK.
  ResultSet r = Run(kBlowupQuery, EvalOptions{});
  EXPECT_TRUE(r.governor_status().ok());
  EXPECT_EQ(r.governor_report().tripped, LimitKind::kNone);
  EXPECT_EQ(r.size(), 1u);
}

TEST_F(GovernorTest, ElevenFactorProductTripsMemoryBudgetBeforeBuilding) {
  // Ungoverned, the 11 factors multiply out to 3^11 = 177,147 disjuncts
  // (and no row: no disjunct is satisfiable). A 1 MB budget stops the
  // fold at the first product step whose atoms would exceed it, before
  // that step allocates them.
  EvalOptions opts;
  opts.memory_budget = 1'000'000;
  ResultSet r = Run(
      "SELECT DSK FROM Desk DSK WHERE SAT(" + ProductQuery(1, 11) + ")", opts);
  EXPECT_TRUE(r.governor_status().IsResourceExhausted())
      << r.governor_status();
  EXPECT_EQ(r.governor_report().tripped, LimitKind::kMemory);
  EXPECT_EQ(r.governor_report().site, "existential.and");
  EXPECT_EQ(r.size(), 0u);
  EXPECT_NE(r.ToString().find("PARTIAL"), std::string::npos);
}

TEST_F(GovernorTest, DeadlineStopsAProductMidStep) {
  // The 12 factors multiply out to 3^12 = 531,441 disjuncts. A product
  // samples the deadline every 1,024 disjuncts it builds, so a deadline
  // that expires inside a product step trips there, not at the fold's
  // check before the next step. Grouped in two halves of 729 disjuncts,
  // nearly all the work is one 729 x 729 product: about a second in a
  // Release build, while the halves take under 0.15 s even under ASan, so
  // a 300 ms deadline expires inside it. (In the flat chain the deadline
  // can also expire between steps, while a step's input is freed.)
  EvalOptions opts;
  opts.deadline_ms = 300;
  ResultSet r = Run("SELECT DSK FROM Desk DSK WHERE SAT((" +
                        ProductQuery(1, 6) + ") and (" + ProductQuery(7, 12) +
                        "))",
                    opts);
  EXPECT_TRUE(r.governor_status().IsDeadlineExceeded())
      << r.governor_status();
  EXPECT_EQ(r.governor_report().site, "existential.and");
  EXPECT_NE(r.ToString().find("PARTIAL"), std::string::npos);
}

// -- End-to-end: memory budget in the solver --------------------------------

TEST_F(GovernorTest, TableauIsChargedBeforeTheSolve) {
  // Building `x >= 0 and x <= 4` folds two one-by-one products, charging
  // 1 + 2 atoms. Its LP has 2 rows over 4 columns (x+, x-, two slacks),
  // so its tableau with one artificial per row takes 2 * (4 + 2)
  // Rationals. A budget that covers the building but not the tableau
  // trips at the tableau before the LP is counted or a row is built.
  EvalOptions opts;
  opts.memory_budget = 3 * sizeof(LinearConstraint);
  ASSERT_LT(*opts.memory_budget, 2 * (4 + 2) * sizeof(Rational));
  obs::Counter& lp_solves =
      obs::Registry::Global().GetCounter("simplex.lp_solves");
  const uint64_t solves_before = lp_solves.value();
  ResultSet r =
      Run("SELECT DSK FROM Desk DSK WHERE SAT(x >= 0 and x <= 4)", opts);
  EXPECT_TRUE(r.governor_status().IsResourceExhausted())
      << r.governor_status();
  EXPECT_EQ(r.governor_report().tripped, LimitKind::kMemory);
  EXPECT_EQ(r.governor_report().site, "simplex.tableau");
  EXPECT_EQ(lp_solves.value(), solves_before);
  EXPECT_EQ(r.size(), 0u);
}

TEST_F(GovernorTest, MemoryBudgetTripsEntailmentQuery) {
  EvalOptions opts;
  opts.memory_budget = 1;
  // Entailment into a box of inequalities forces simplex runs, and
  // building its formulas multiplies nothing, so the first charge is the
  // first tableau. It is charged before a row is built, so no pivot runs.
  // (An entailment over equalities, such as the drawer center's `p = -2`,
  // is decided by substitution with no tableau at all.)
  ResultSet r = Run(kExtentEntailment, opts);
  EXPECT_TRUE(r.governor_status().IsResourceExhausted())
      << r.governor_status();
  EXPECT_EQ(r.governor_report().tripped, LimitKind::kMemory);
  EXPECT_EQ(r.governor_report().site, "simplex.tableau");
  EXPECT_GE(r.governor_report().memory_used, 1u);
  EXPECT_EQ(r.governor_report().pivots_used, 0u);

  // The cache must not have memoized any verdict from the aborted solve:
  // the unlimited rerun still answers correctly.
  ResultSet full = Run(kExtentEntailment, EvalOptions{});
  EXPECT_TRUE(full.governor_status().ok());
  EXPECT_EQ(full.size(), 1u);
}

TEST_F(GovernorTest, MemoryBudgetTripsTableauAccounting) {
  EvalOptions opts;
  opts.memory_budget = 1;  // One byte: the first tableau trips it.
  ResultSet r = Run(
      "SELECT DSK FROM Desk DSK WHERE DSK.drawer_center[C] and "
      "C(p, q) |= q = -1",
      opts);
  EXPECT_TRUE(r.governor_status().IsResourceExhausted())
      << r.governor_status();
  EXPECT_EQ(r.governor_report().tripped, LimitKind::kMemory);
  EXPECT_EQ(r.governor_report().site, "simplex.tableau");
  EXPECT_GE(r.governor_report().memory_used, 1u);
}

TEST_F(GovernorTest, InjectedAllocFaultTripsMemoryBudget) {
  // The alloc fault site lets the fault gate exercise the budget-trip
  // path without a genuinely huge query: with a budget configured and
  // the site armed, the first accounted allocation trips.
  ASSERT_TRUE(fault::Configure("alloc:1.0:7"));
  EvalOptions opts;
  opts.memory_budget = 1ull << 40;  // Generous; only the fault trips it.
  ResultSet r = Run(kExtentEntailment, opts);
  EXPECT_TRUE(r.governor_status().IsResourceExhausted())
      << r.governor_status();
  EXPECT_EQ(r.governor_report().tripped, LimitKind::kMemory);
}

TEST_F(GovernorTest, UngovernedQueriesCarryNoGovernorState) {
  ResultSet r = Run(kFigure2Query, EvalOptions{});
  EXPECT_TRUE(r.governor_status().ok());
  EXPECT_EQ(r.governor_report().tripped, LimitKind::kNone);
  EXPECT_EQ(r.ToString().find("PARTIAL"), std::string::npos);
}

TEST_F(GovernorTest, GenerousLimitsDoNotPerturbResults) {
  // A fully-governed run with limits far above the query's needs must be
  // indistinguishable from the ungoverned run.
  EvalOptions governed;
  governed.deadline_ms = 60'000;
  governed.memory_budget = 1ull << 32;
  ResultSet g = Run(kFigure2Query, governed);
  ResultSet u = Run(kFigure2Query, EvalOptions{});
  EXPECT_TRUE(g.governor_status().ok());
  EXPECT_EQ(g.ToString(), u.ToString());
}

}  // namespace
}  // namespace lyric
