// Determinism/stress test for the state concurrent queries share (the
// solver cache, the CST store, the variable interner), intended to run
// under ThreadSanitizer (the CI TSan job runs the full suite). Many
// threads hammer one SolverCache::Global() and one shared Database with
// the §4.1 paper queries; every thread must get the identical answer,
// and TSan must stay silent.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "constraint/solver_cache.h"
#include "office/office_db.h"
#include "query/evaluator.h"

namespace lyric {
namespace {

// The §4.1 worked examples (read-only against the Figure 2 instance,
// apart from CST interning — which is exactly the shared write path the
// test wants to stress).
const char* kPaperQueries[] = {
    "SELECT Y FROM Desk X WHERE X.drawer.extent[Y]",
    "SELECT CO, ((u, v) | E(w, z) and D(w, z, x, y, u, v) and x = 6 and "
    "y = 4) FROM Office_Object CO WHERE CO.extent[E] and CO.translation[D]",
    "SELECT CO, ((u, v) | CO.extent and CO.translation and x = 6 and y = 4) "
    "FROM Office_Object CO",
    "SELECT O FROM Object_in_Room O "
    "WHERE O.location[L] and L(x, y) |= x <= 12",
};

class ParallelStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ids = office::BuildOfficeDatabase(&db_);
    ASSERT_TRUE(ids.ok()) << ids.status();
    ASSERT_TRUE(office::AddScaledDesks(&db_, 16, /*seed=*/3).ok());
    SolverCache::Global().Clear();
  }

  void TearDown() override { SolverCache::Global().Clear(); }

  Database db_;
};

// N serial evaluators over one shared database and one shared global
// cache: every interleaving of cache fills/hits/evictions must produce
// the same rendered answers.
TEST_F(ParallelStressTest, ManyEvaluatorsOneSharedCache) {
  // Baseline answers, computed single-threaded.
  std::vector<std::string> expected;
  for (const char* q : kPaperQueries) {
    Evaluator ev(&db_);
    auto r = ev.Execute(q);
    ASSERT_TRUE(r.ok()) << q << "\n -> " << r.status();
    expected.push_back(r->ToString());
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 5;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([this, t, &expected, &mismatches] {
      for (int round = 0; round < kRounds; ++round) {
        // Stagger the query order per thread so cache fills race.
        for (size_t qi = 0; qi < std::size(kPaperQueries); ++qi) {
          size_t q = (qi + static_cast<size_t>(t)) % std::size(kPaperQueries);
          Evaluator ev(&db_);
          auto r = ev.Execute(kPaperQueries[q]);
          if (!r.ok() || r->ToString() != expected[q]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(SolverCache::Global().stats().hits, 0u);
}

// Raw cache hammering: concurrent stores/lookups/evictions/re-bounds on a
// tiny shared cache. Answers must stay self-consistent (a lookup never
// returns a foreign verdict) and TSan must stay silent.
TEST_F(ParallelStressTest, RawCacheThrash) {
  SolverCache cache(32);
  VarId x = Variable::Intern("x");
  constexpr int kThreads = 8;
  std::atomic<int> wrong{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, x, t, &wrong] {
      for (int i = 0; i < 400; ++i) {
        // Key k: (x <= k); verdict parity encodes k so a foreign entry
        // is detectable.
        int k = (i * 7 + t) % 64;
        Conjunction c;
        c.Add(LinearConstraint::Le(LinearExpr::Var(x),
                                   LinearExpr::Constant(Rational(k))));
        cache.StoreSat(c, k % 2 == 0);
        std::optional<bool> got = cache.LookupSat(c);
        if (got.has_value() && *got != (k % 2 == 0)) {
          wrong.fetch_add(1, std::memory_order_relaxed);
        }
        if (i % 97 == 0) cache.set_capacity(16 + (i % 3) * 16);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(wrong.load(), 0);
}

}  // namespace
}  // namespace lyric
