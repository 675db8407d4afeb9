// Governor-aware cache tombstones: a query tripped by a budget limit
// (pivots / memory / disjuncts) records a "too expensive" marker in the
// SolverCache, so repeat runs under the same (or a tighter) budget fail
// fast with the byte-identical typed status instead of re-burning the
// budget. Tombstones never outlive their usefulness: larger budgets and
// ungoverned runs ignore them, successful recomputation overwrites them,
// and they evict from the LRU like any other entry.

#include <gtest/gtest.h>

#include <string>

#include "constraint/simplex.h"
#include "constraint/solver_cache.h"
#include "exec/governor.h"
#include "obs/metrics.h"
#include "office/office_db.h"
#include "query/evaluator.h"

namespace lyric {
namespace {

using exec::CancellationToken;
using exec::GovernorLimits;
using exec::GovernorScope;
using exec::LimitKind;

uint64_t TombstoneHits() {
  return obs::Registry::Global().GetCounter("cache.tombstone.hit").value();
}

Conjunction IntervalConjunction(int64_t lo, int64_t hi) {
  VarId x = Variable::Intern("x");
  Conjunction c;
  c.Add(LinearConstraint::Ge(LinearExpr::Var(x),
                             LinearExpr::Constant(Rational(lo))));
  c.Add(LinearConstraint::Le(LinearExpr::Var(x),
                             LinearExpr::Constant(Rational(hi))));
  return c;
}

class TombstoneTest : public ::testing::Test {
 protected:
  void SetUp() override { SolverCache::Global().Clear(); }
  void TearDown() override { SolverCache::Global().Clear(); }
};

// -- Unit behavior against the cache API -----------------------------------

TEST_F(TombstoneTest, StoredTombstoneReplaysTheOriginalTrip) {
  SolverCache& cache = SolverCache::Global();
  Conjunction doomed = IntervalConjunction(0, 10);

  GovernorLimits limits;
  limits.max_pivots = 32;
  std::string tripped_message;
  {
    CancellationToken token(limits);
    GovernorScope scope(&token);
    token.ForceTrip(LimitKind::kPivots, "simplex.solve");
    tripped_message = token.ToStatus().message();
    cache.StoreSatTombstone(doomed);
  }

  // A fresh governed run with the same budget is doomed before solving.
  CancellationToken token(limits);
  GovernorScope scope(&token);
  uint64_t before = TombstoneHits();
  std::optional<Status> hit = cache.LookupSatTombstone(doomed);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->IsResourceExhausted()) << *hit;
  EXPECT_EQ(hit->message(), tripped_message);  // Byte-identical replay.
  EXPECT_EQ(TombstoneHits(), before + 1);
  // The serving token is now genuinely tripped (sticky), as if it had
  // done the doomed work itself.
  EXPECT_TRUE(token.stopped());
  EXPECT_EQ(token.tripped_kind(), LimitKind::kPivots);
}

TEST_F(TombstoneTest, LargerBudgetAndUngovernedLookupsIgnoreTombstones) {
  SolverCache& cache = SolverCache::Global();
  Conjunction doomed = IntervalConjunction(0, 10);
  GovernorLimits limits;
  limits.max_pivots = 32;
  {
    CancellationToken token(limits);
    GovernorScope scope(&token);
    token.ForceTrip(LimitKind::kPivots, "simplex.solve");
    cache.StoreSatTombstone(doomed);
  }
  {
    // Twice the budget: the tombstone proves nothing — really retry.
    GovernorLimits wider;
    wider.max_pivots = 64;
    CancellationToken token(wider);
    GovernorScope scope(&token);
    EXPECT_FALSE(cache.LookupSatTombstone(doomed).has_value());
    EXPECT_FALSE(token.stopped());
  }
  {
    // A governed run with no pivot limit at all.
    GovernorLimits deadline_only;
    deadline_only.deadline_ms = 60000;
    CancellationToken token(deadline_only);
    GovernorScope scope(&token);
    EXPECT_FALSE(cache.LookupSatTombstone(doomed).has_value());
  }
  // Ungoverned: no token, no tombstone service.
  EXPECT_FALSE(cache.LookupSatTombstone(doomed).has_value());
  // The tombstone entry also never answers a plain verdict lookup.
  EXPECT_FALSE(cache.LookupSat(doomed).has_value());
}

TEST_F(TombstoneTest, DeadlineTripsAreNeverTombstoned) {
  SolverCache& cache = SolverCache::Global();
  Conjunction c = IntervalConjunction(0, 10);
  GovernorLimits limits;
  limits.deadline_ms = 1;
  limits.max_pivots = 32;
  {
    CancellationToken token(limits);
    GovernorScope scope(&token);
    token.ForceTrip(LimitKind::kDeadline, "simplex.solve");
    cache.StoreSatTombstone(c);  // Must be a no-op for wall-clock trips.
  }
  CancellationToken token(limits);
  GovernorScope scope(&token);
  EXPECT_FALSE(cache.LookupSatTombstone(c).has_value());
}

TEST_F(TombstoneTest, SuccessfulRecomputationOverwritesTheTombstone) {
  SolverCache& cache = SolverCache::Global();
  Conjunction doomed = IntervalConjunction(0, 10);
  GovernorLimits limits;
  limits.max_pivots = 32;
  {
    CancellationToken token(limits);
    GovernorScope scope(&token);
    token.ForceTrip(LimitKind::kPivots, "simplex.solve");
    cache.StoreSatTombstone(doomed);
  }
  // A larger budget recomputes and stores the real verdict over the
  // tombstone (shared key).
  cache.StoreSat(doomed, true);
  CancellationToken token(limits);
  GovernorScope scope(&token);
  EXPECT_FALSE(cache.LookupSatTombstone(doomed).has_value());
  EXPECT_EQ(cache.LookupSat(doomed), std::optional<bool>(true));
}

TEST_F(TombstoneTest, TombstonesEvictLikeNormalEntries) {
  SolverCache& cache = SolverCache::Global();
  size_t previous = cache.capacity();
  cache.set_capacity(16);
  cache.Clear();
  Conjunction doomed = IntervalConjunction(0, 10);
  GovernorLimits limits;
  limits.max_pivots = 32;
  {
    CancellationToken token(limits);
    GovernorScope scope(&token);
    token.ForceTrip(LimitKind::kPivots, "simplex.solve");
    cache.StoreSatTombstone(doomed);
  }
  // Flood every shard until the tombstone falls off the LRU.
  for (int i = 0; i < 512; ++i) {
    cache.StoreSat(IntervalConjunction(-1000 - i, 1000 + i), true);
  }
  CancellationToken token(limits);
  GovernorScope scope(&token);
  EXPECT_FALSE(cache.LookupSatTombstone(doomed).has_value());
  cache.set_capacity(previous);
  cache.Clear();
}

// -- End-to-end: a budget-tripped query fails fast on repeat ---------------

TEST_F(TombstoneTest, RepeatGovernedQueryFailsFastWithIdenticalStatus) {
  Database db;
  auto ids = office::BuildOfficeDatabase(&db);
  ASSERT_TRUE(ids.ok()) << ids.status();

  // An entailment query under a pivot budget far too small to finish: the
  // in-flight kernel computation trips and tombstones its key.
  const char* kQuery =
      "SELECT O FROM Object_in_Room O "
      "WHERE O.location[L] and L(x, y) |= x <= 12";
  EvalOptions governed;
  governed.max_pivots = 1;

  Evaluator ev(&db, governed);
  auto first = ev.Execute(kQuery);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(first->governor_status().IsResourceExhausted())
      << first->governor_status();
  ASSERT_EQ(first->governor_report().tripped, LimitKind::kPivots);
  const std::string first_message = first->governor_status().message();

  // Same budget again: served from the tombstone, byte-identical status,
  // and the kernels never re-burn the pivot budget on the doomed key.
  uint64_t before = TombstoneHits();
  Evaluator again(&db, governed);
  auto second = again.Execute(kQuery);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_TRUE(second->governor_status().IsResourceExhausted())
      << second->governor_status();
  EXPECT_EQ(second->governor_status().message(), first_message);
  EXPECT_EQ(second->governor_report().site, first->governor_report().site);
  EXPECT_GT(TombstoneHits(), before);

  // A generous budget ignores the tombstone and completes the query.
  EvalOptions generous;
  generous.max_pivots = 1000000;
  Evaluator wide(&db, generous);
  auto full = wide.Execute(kQuery);
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_TRUE(full->governor_status().ok()) << full->governor_status();
  EXPECT_GT(full->size(), 0u);

  // The successful recomputation overwrote the tombstones: the tight
  // budget now rides the warm cache instead of failing fast.
  uint64_t after_success = TombstoneHits();
  Evaluator warm(&db, governed);
  auto third = warm.Execute(kQuery);
  ASSERT_TRUE(third.ok()) << third.status();
  EXPECT_EQ(TombstoneHits(), after_success);
}

}  // namespace
}  // namespace lyric
