#include "constraint/simplex.h"

#include <random>

#include <gtest/gtest.h>

#include "constraint/fourier_motzkin.h"
#include "constraint/solver_cache.h"
#include "obs/metrics.h"

namespace lyric {
namespace {

class SimplexTest : public ::testing::Test {
 protected:
  VarId x_ = Variable::Intern("x");
  VarId y_ = Variable::Intern("y");
  VarId z_ = Variable::Intern("z");

  LinearExpr X() { return LinearExpr::Var(x_); }
  LinearExpr Y() { return LinearExpr::Var(y_); }
  LinearExpr Z() { return LinearExpr::Var(z_); }
  LinearExpr C(int64_t v) { return LinearExpr::Constant(Rational(v)); }

  Conjunction Box01() {
    Conjunction c;
    c.Add(LinearConstraint::Ge(X(), C(0)));
    c.Add(LinearConstraint::Le(X(), C(1)));
    c.Add(LinearConstraint::Ge(Y(), C(0)));
    c.Add(LinearConstraint::Le(Y(), C(1)));
    return c;
  }
};

TEST_F(SimplexTest, EmptyConjunctionIsSat) {
  EXPECT_TRUE(Simplex::IsSatisfiable(Conjunction()).value());
}

TEST_F(SimplexTest, FalseIsUnsat) {
  EXPECT_FALSE(Simplex::IsSatisfiable(Conjunction::False()).value());
}

TEST_F(SimplexTest, BoxIsSat) {
  EXPECT_TRUE(Simplex::IsSatisfiable(Box01()).value());
}

TEST_F(SimplexTest, ContradictoryBoundsUnsat) {
  Conjunction c;
  c.Add(LinearConstraint::Ge(X(), C(2)));
  c.Add(LinearConstraint::Le(X(), C(1)));
  EXPECT_FALSE(Simplex::IsSatisfiable(c).value());
}

TEST_F(SimplexTest, FreeVariablesCanBeNegative) {
  Conjunction c;
  c.Add(LinearConstraint::Le(X(), C(-5)));
  EXPECT_TRUE(Simplex::IsSatisfiable(c).value());
  auto pt = Simplex::FindPoint(c).value();
  ASSERT_TRUE(pt.has_value());
  EXPECT_LE(pt->at(x_), Rational(-5));
}

TEST_F(SimplexTest, StrictBoundaryOnlyIsUnsat) {
  // x >= 1 and x < 1: only the boundary point of the closure exists.
  Conjunction c;
  c.Add(LinearConstraint::Ge(X(), C(1)));
  c.Add(LinearConstraint::Lt(X(), C(1)));
  EXPECT_FALSE(Simplex::IsSatisfiable(c).value());
}

TEST_F(SimplexTest, StrictOpenIntervalIsSat) {
  Conjunction c;
  c.Add(LinearConstraint::Gt(X(), C(0)));
  c.Add(LinearConstraint::Lt(X(), C(1)));
  EXPECT_TRUE(Simplex::IsSatisfiable(c).value());
  auto pt = Simplex::FindPoint(c).value();
  ASSERT_TRUE(pt.has_value());
  EXPECT_GT(pt->at(x_), Rational(0));
  EXPECT_LT(pt->at(x_), Rational(1));
}

TEST_F(SimplexTest, DisequalityOnPointUnsat) {
  // x = 3 and x != 3.
  Conjunction c;
  c.Add(LinearConstraint::Eq(X(), C(3)));
  c.Add(LinearConstraint::Neq(X(), C(3)));
  EXPECT_FALSE(Simplex::IsSatisfiable(c).value());
}

TEST_F(SimplexTest, DisequalityInsideSegmentSat) {
  // 0 <= x <= 1 and x != 1/2: still satisfiable, witness avoids 1/2.
  Conjunction c;
  c.Add(LinearConstraint::Ge(X(), C(0)));
  c.Add(LinearConstraint::Le(X(), C(1)));
  c.Add(LinearConstraint::Neq(X().Scale(Rational(2)), C(1)));
  EXPECT_TRUE(Simplex::IsSatisfiable(c).value());
  auto pt = Simplex::FindPoint(c).value();
  ASSERT_TRUE(pt.has_value());
  EXPECT_NE(pt->at(x_), Rational(1, 2));
  EXPECT_TRUE(c.Eval(*pt).value());
}

TEST_F(SimplexTest, ManyDisequalitiesRepaired) {
  Conjunction c = Box01();
  c.Add(LinearConstraint::Eq(Y(), C(0)));
  // Exclude x = 0, x = 1/2, x = 1: all on the witness segment.
  c.Add(LinearConstraint::Neq(X(), C(0)));
  c.Add(LinearConstraint::Neq(X().Scale(Rational(2)), C(1)));
  c.Add(LinearConstraint::Neq(X(), C(1)));
  auto pt = Simplex::FindPoint(c).value();
  ASSERT_TRUE(pt.has_value());
  EXPECT_TRUE(c.Eval(*pt).value());
}

TEST_F(SimplexTest, MaximizeOverBox) {
  // max x + y over the unit box = 2 at (1, 1).
  auto sol = Simplex::Maximize(X() + Y(), Box01()).value();
  EXPECT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_EQ(sol.value, Rational(2));
  EXPECT_TRUE(sol.attained);
  EXPECT_EQ(sol.point.at(x_), Rational(1));
  EXPECT_EQ(sol.point.at(y_), Rational(1));
}

TEST_F(SimplexTest, MinimizeOverBox) {
  auto sol = Simplex::Minimize(X() + Y(), Box01()).value();
  EXPECT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_EQ(sol.value, Rational(0));
  EXPECT_TRUE(sol.attained);
}

TEST_F(SimplexTest, MaximizeUnbounded) {
  Conjunction c;
  c.Add(LinearConstraint::Ge(X(), C(0)));
  auto sol = Simplex::Maximize(X(), c).value();
  EXPECT_EQ(sol.status, LpStatus::kUnbounded);
}

TEST_F(SimplexTest, MaximizeInfeasible) {
  auto sol = Simplex::Maximize(X(), Conjunction::False()).value();
  EXPECT_EQ(sol.status, LpStatus::kInfeasible);
}

TEST_F(SimplexTest, SupremumNotAttainedOnOpenSet) {
  // max x over x < 1: supremum 1, not attained.
  Conjunction c;
  c.Add(LinearConstraint::Lt(X(), C(1)));
  c.Add(LinearConstraint::Ge(X(), C(0)));
  auto sol = Simplex::Maximize(X(), c).value();
  EXPECT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_EQ(sol.value, Rational(1));
  EXPECT_FALSE(sol.attained);
}

TEST_F(SimplexTest, RationalOptimum) {
  // max x s.t. 3x <= 2  ->  2/3.
  Conjunction c;
  c.Add(LinearConstraint::Le(X().Scale(Rational(3)), C(2)));
  auto sol = Simplex::Maximize(X(), c).value();
  EXPECT_EQ(sol.value, Rational(2, 3));
}

TEST_F(SimplexTest, ObjectiveWithConstantOffset) {
  // max (x + 10) over x <= 5.
  Conjunction c;
  c.Add(LinearConstraint::Le(X(), C(5)));
  auto sol = Simplex::Maximize(X() + C(10), c).value();
  EXPECT_EQ(sol.value, Rational(15));
}

TEST_F(SimplexTest, EqualitiesHandled) {
  // x + y = 3, x - y = 1 -> unique point (2, 1).
  Conjunction c;
  c.Add(LinearConstraint::Eq(X() + Y(), C(3)));
  c.Add(LinearConstraint::Eq(X() - Y(), C(1)));
  auto sol = Simplex::Maximize(X(), c).value();
  EXPECT_EQ(sol.value, Rational(2));
  EXPECT_EQ(sol.point.at(y_), Rational(1));
  auto sol2 = Simplex::Minimize(X(), c).value();
  EXPECT_EQ(sol2.value, Rational(2));
}

TEST_F(SimplexTest, DegenerateRedundantRows) {
  // Same constraint three times plus an implied one; simplex must not cycle.
  Conjunction c;
  c.Add(LinearConstraint::Le(X() + Y(), C(1)));
  c.Add(LinearConstraint::Le(X() + Y(), C(1)));
  c.Add(LinearConstraint::Le(X().Scale(Rational(2)) + Y().Scale(Rational(2)),
                             C(2)));
  c.Add(LinearConstraint::Ge(X(), C(0)));
  c.Add(LinearConstraint::Ge(Y(), C(0)));
  auto sol = Simplex::Maximize(X() + Y(), c).value();
  EXPECT_EQ(sol.value, Rational(1));
}

TEST_F(SimplexTest, EntailsZero) {
  // On {x + y = 3, x - y = 1}, x - 2 == 0 everywhere.
  Conjunction c;
  c.Add(LinearConstraint::Eq(X() + Y(), C(3)));
  c.Add(LinearConstraint::Eq(X() - Y(), C(1)));
  EXPECT_TRUE(Simplex::EntailsZero(c, X() - C(2)).value());
  EXPECT_FALSE(Simplex::EntailsZero(c, X() - C(1)).value());
  EXPECT_FALSE(Simplex::EntailsZero(Box01(), X()).value());
  // Vacuous entailment on the empty set.
  EXPECT_TRUE(Simplex::EntailsZero(Conjunction::False(), X()).value());
}

TEST_F(SimplexTest, ThreeVarLp) {
  // max x + 2y + 3z s.t. x+y+z <= 10, x,y,z in [0, 4].
  Conjunction c;
  for (const LinearExpr& v : {X(), Y(), Z()}) {
    c.Add(LinearConstraint::Ge(v, C(0)));
    c.Add(LinearConstraint::Le(v, C(4)));
  }
  c.Add(LinearConstraint::Le(X() + Y() + Z(), C(10)));
  auto sol =
      Simplex::Maximize(X() + Y().Scale(Rational(2)) + Z().Scale(Rational(3)),
                        c)
          .value();
  // Optimal: z=4, y=4, x=2 -> 2 + 8 + 12 = 22.
  EXPECT_EQ(sol.value, Rational(22));
  EXPECT_TRUE(sol.attained);
}

// Property sweep: on random bounded polytopes that contain a known point,
// satisfiability must hold and the optimum must weakly dominate the value
// at the known point.
class SimplexRandomized : public ::testing::TestWithParam<int> {};

TEST_P(SimplexRandomized, OptimumDominatesInteriorPoint) {
  std::mt19937_64 rng(GetParam());
  VarId vars[3] = {Variable::Intern("rx"), Variable::Intern("ry"),
                   Variable::Intern("rz")};
  auto rand_coeff = [&]() {
    return Rational(static_cast<int64_t>(rng() % 11) - 5);
  };
  // Known point p.
  Assignment p;
  for (VarId v : vars) p[v] = Rational(static_cast<int64_t>(rng() % 7) - 3);
  Conjunction c;
  for (int i = 0; i < 8; ++i) {
    LinearExpr e;
    for (VarId v : vars) e.AddTerm(v, rand_coeff());
    // Make the constraint loose at p: e <= e(p) + slackness.
    Rational at_p = e.Eval(p).value();
    Rational slack(static_cast<int64_t>(rng() % 5));
    c.Add(LinearConstraint::Le(e, LinearExpr::Constant(at_p + slack)));
  }
  // Bound the region so optima exist.
  for (VarId v : vars) {
    c.Add(LinearConstraint::Ge(LinearExpr::Var(v),
                               LinearExpr::Constant(Rational(-100))));
    c.Add(LinearConstraint::Le(LinearExpr::Var(v),
                               LinearExpr::Constant(Rational(100))));
  }
  ASSERT_TRUE(Simplex::IsSatisfiable(c).value());
  LinearExpr obj;
  for (VarId v : vars) obj.AddTerm(v, rand_coeff());
  auto sol = Simplex::Maximize(obj, c).value();
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_GE(sol.value, obj.Eval(p).value());
  // The reported point must satisfy the (closed) constraints and achieve
  // the reported value.
  EXPECT_EQ(obj.Eval(sol.point).value(), sol.value);
  EXPECT_TRUE(c.Eval(sol.point).value());
}

// Turns the global SolverCache off for one test and restores its capacity
// afterwards, so that every verdict is computed rather than recalled.
struct CacheOff {
  size_t saved = SolverCache::Global().capacity();
  CacheOff() { SolverCache::Global().set_capacity(0); }
  ~CacheOff() { SolverCache::Global().set_capacity(saved); }
};

// Independent kernel oracle: on seeded conjunctions of =, <= and < atoms
// over at most four variables, simplex satisfiability must agree with full
// Fourier-Motzkin elimination, i.e. ProjectOnto(c, {}) is not False.
// ProjectOnto calls no simplex, and the SolverCache is disabled. Three
// draws: equalities rare, equalities as common as inequalities, and
// triangular equalities that pin every variable to one point. Every
// satisfiable verdict is also backed by FindPoint, whose LP runs on the
// atoms as given rather than on the presolved ones.
TEST_P(SimplexRandomized, SatisfiabilityMatchesFourierMotzkin) {
  CacheOff cache_off;
  std::mt19937_64 rng(GetParam() + 100);
  VarId vars[4] = {Variable::Intern("ox"), Variable::Intern("oy"),
                   Variable::Intern("oz"), Variable::Intern("ow")};
  auto small = [&](int64_t span) {
    return Rational(static_cast<int64_t>(rng() % (2 * span + 1)) - span);
  };
  const RelOp kOps[3] = {RelOp::kEq, RelOp::kLe, RelOp::kLt};
  auto check = [&](const Conjunction& c, int* verdicts) {
    bool by_simplex = Simplex::IsSatisfiable(c).value();
    Result<Conjunction> projected = FourierMotzkin::ProjectOnto(c, VarSet{});
    ASSERT_TRUE(projected.ok()) << projected.status();
    ASSERT_TRUE(projected->FreeVars().empty());
    bool by_fm = *projected != Conjunction::False();
    EXPECT_EQ(by_simplex, by_fm) << c.ToString();
    ++verdicts[by_simplex ? 1 : 0];
    if (!by_simplex) return;
    Result<std::optional<Assignment>> point = Simplex::FindPoint(c);
    ASSERT_TRUE(point.ok()) << point.status();
    ASSERT_TRUE(point->has_value()) << c.ToString();
    Result<bool> holds = c.Eval(**point);
    ASSERT_TRUE(holds.ok()) << holds.status() << " in " << c.ToString();
    EXPECT_TRUE(*holds) << c.ToString();
  };
  // Draw 0 keeps equalities rare so that most systems keep some freedom;
  // draw 1 makes half the atoms equalities.
  for (int draw = 0; draw < 2; ++draw) {
    int verdicts[2] = {0, 0};
    for (int trial = 0; trial < 40; ++trial) {
      const size_t num_vars = 1 + rng() % 4;
      const size_t num_atoms = 2 + rng() % 6;
      Conjunction c;
      for (size_t i = 0; i < num_atoms; ++i) {
        LinearExpr e = LinearExpr::Constant(small(4));
        for (size_t k = 0; k < num_vars; ++k) e.AddTerm(vars[k], small(3));
        const bool eq = draw == 0 ? rng() % 5 == 0 : rng() % 2 == 0;
        RelOp op = kOps[eq ? 0 : 1 + rng() % 2];
        c.Add(LinearConstraint(e, op));
      }
      ASSERT_NO_FATAL_FAILURE(check(c, verdicts));
    }
    // Each draw must exercise both verdicts.
    EXPECT_GT(verdicts[0], 0) << "draw " << draw;
    EXPECT_GT(verdicts[1], 0) << "draw " << draw;
  }
  // Draw 2: v_k + (a combination of v_0..v_{k-1}) = constant for every
  // variable, so the equalities alone leave one point, which the random
  // inequalities then keep or cut.
  int verdicts[2] = {0, 0};
  for (int trial = 0; trial < 40; ++trial) {
    const size_t num_vars = 1 + rng() % 4;
    Conjunction c;
    for (size_t k = 0; k < num_vars; ++k) {
      LinearExpr e = LinearExpr::Term(Rational(1) + small(1).Abs(), vars[k]) +
                     LinearExpr::Constant(small(4));
      for (size_t j = 0; j < k; ++j) e.AddTerm(vars[j], small(2));
      c.Add(LinearConstraint(e, RelOp::kEq));
    }
    const size_t num_ineqs = rng() % 3;
    for (size_t i = 0; i < num_ineqs; ++i) {
      LinearExpr e = LinearExpr::Constant(small(4));
      for (size_t k = 0; k < num_vars; ++k) e.AddTerm(vars[k], small(3));
      c.Add(LinearConstraint(e, kOps[1 + rng() % 2]));
    }
    ASSERT_NO_FATAL_FAILURE(check(c, verdicts));
  }
  EXPECT_GT(verdicts[0], 0) << "pinned draw";
  EXPECT_GT(verdicts[1], 0) << "pinned draw";
}

// A room location is a point, and a Q3-shaped join tests it against a
// window: solving the equalities decides both verdicts with no LP.
TEST_F(SimplexTest, EqualitiesDecideAPointInABoxWithNoLp) {
  CacheOff cache_off;
  const obs::Counter& lp_solves =
      obs::Registry::Global().GetCounter("simplex.lp_solves");
  auto point_in_box = [&](int64_t x, int64_t y) {
    Conjunction c;
    c.Add(LinearConstraint::Eq(X(), C(x)));
    c.Add(LinearConstraint::Eq(Y(), C(y)));
    c.Add(LinearConstraint::Ge(X(), C(2)));
    c.Add(LinearConstraint::Le(X(), C(10)));
    c.Add(LinearConstraint::Ge(Y(), C(1)));
    c.Add(LinearConstraint::Le(Y(), C(5)));
    return c;
  };
  const uint64_t before = lp_solves.value();
  EXPECT_TRUE(Simplex::IsSatisfiable(point_in_box(6, 4)).value());
  EXPECT_FALSE(Simplex::IsSatisfiable(point_in_box(12, 4)).value());
  EXPECT_EQ(lp_solves.value(), before);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexRandomized,
                         ::testing::Range(1, 21));

}  // namespace
}  // namespace lyric
