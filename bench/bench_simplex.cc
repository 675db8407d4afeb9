// E5 — the MAX/MIN ... SUBJECT TO operator (§4.2): exact-rational LP cost
// as the constraint system grows, plus the satisfiability predicate's
// epsilon handling for strict inequalities.
//
// Expected shape: polynomial growth in both variables and constraints;
// strict systems pay a constant factor for the epsilon column; witness
// extraction (FindPoint) tracks feasibility cost.
//
// The satisfiability benchmarks run with the SolverCache off, so every
// iteration solves; BM_SolverCacheSatHit times a memo hit on its own.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "constraint/simplex.h"
#include "constraint/solver_cache.h"

namespace lyric {
namespace {

// Turns the global SolverCache off for one benchmark and restores its
// capacity afterwards.
class CacheOff {
 public:
  CacheOff() { SolverCache::Global().set_capacity(0); }
  ~CacheOff() { SolverCache::Global().set_capacity(saved_); }
  CacheOff(const CacheOff&) = delete;
  CacheOff& operator=(const CacheOff&) = delete;

 private:
  size_t saved_ = SolverCache::Global().capacity();
};

LinearExpr V(const std::string& name) {
  return LinearExpr::Var(Variable::Intern(name));
}
LinearExpr K(int64_t v) { return LinearExpr::Constant(Rational(v)); }

// A room location (a point) with a 4-atom window over the same two
// variables: the SAT(L(x, y) and box) test of a Q3-shaped join.
Conjunction PointInBox() {
  Conjunction c;
  c.Add(LinearConstraint::Eq(V("bx"), K(6)));
  c.Add(LinearConstraint::Eq(V("by"), K(4)));
  c.Add(LinearConstraint::Ge(V("bx"), K(2)));
  c.Add(LinearConstraint::Le(V("bx"), K(18)));
  c.Add(LinearConstraint::Ge(V("by"), K(1)));
  c.Add(LinearConstraint::Le(V("by"), K(13)));
  return c;
}

// The joined §4.1 Q3 body over 14 variables (two translations, the
// drawer's placement, its center and extent, a location) cut by a
// half-plane in (u, v).
Conjunction Q3BodyWithCut() {
  Conjunction c;
  // D(w, z, x, y, u, v) and DD(w1, z1, x1, y1, u1, v1).
  c.Add(LinearConstraint::Eq(V("bu"), V("bx") + V("bw")));
  c.Add(LinearConstraint::Eq(V("bv"), V("by") + V("bz")));
  c.Add(LinearConstraint::Eq(V("bu1"), V("bx1") + V("bw1")));
  c.Add(LinearConstraint::Eq(V("bv1"), V("by1") + V("bz1")));
  // w = u1 and z = v1.
  c.Add(LinearConstraint::Eq(V("bw"), V("bu1")));
  c.Add(LinearConstraint::Eq(V("bz"), V("bv1")));
  // DC(p, q), the drawer center, placed at (x1, y1).
  c.Add(LinearConstraint::Eq(V("bp"), K(-2)));
  c.Add(LinearConstraint::Ge(V("bq"), K(-2)));
  c.Add(LinearConstraint::Le(V("bq"), K(0)));
  c.Add(LinearConstraint::Eq(V("bx1"), V("bp")));
  c.Add(LinearConstraint::Eq(V("by1"), V("bq")));
  // DE(w1, z1): the drawer's extent.
  c.Add(LinearConstraint::Ge(V("bw1"), K(-1)));
  c.Add(LinearConstraint::Le(V("bw1"), K(1)));
  c.Add(LinearConstraint::Ge(V("bz1"), K(-1)));
  c.Add(LinearConstraint::Le(V("bz1"), K(1)));
  // L(x, y) and the cut 3u - 2v <= 7.
  c.Add(LinearConstraint::Eq(V("bx"), K(6)));
  c.Add(LinearConstraint::Eq(V("by"), K(4)));
  c.Add(LinearConstraint::Le(V("bu").Scale(Rational(3)) -
                                 V("bv").Scale(Rational(2)),
                             K(7)));
  return c;
}

void BM_MaximizeByConstraints(benchmark::State& state) {
  auto vars = bench::BenchVars(6);
  Conjunction c = bench::RandomPolytope(
      vars, static_cast<int>(state.range(0)), /*seed=*/21);
  LinearExpr obj;
  for (VarId v : vars) obj.AddTerm(v, Rational(1));
  bench::CounterDeltas obs_deltas(state);
  for (auto _ : state) {
    auto r = Simplex::Maximize(obj, c);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_MaximizeByConstraints)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_MaximizeByVariables(benchmark::State& state) {
  auto vars = bench::BenchVars(static_cast<size_t>(state.range(0)));
  Conjunction c = bench::RandomPolytope(vars, 24, /*seed=*/22);
  LinearExpr obj;
  for (VarId v : vars) obj.AddTerm(v, Rational(1));
  bench::CounterDeltas obs_deltas(state);
  for (auto _ : state) {
    auto r = Simplex::Maximize(obj, c);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_MaximizeByVariables)->Arg(2)->Arg(4)->Arg(8)->Arg(10);

void BM_SatisfiabilityClosed(benchmark::State& state) {
  CacheOff cache_off;
  auto vars = bench::BenchVars(6);
  Conjunction c = bench::RandomPolytope(
      vars, static_cast<int>(state.range(0)), /*seed=*/23);
  bench::CounterDeltas obs_deltas(state);
  for (auto _ : state) {
    auto r = Simplex::IsSatisfiable(c);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SatisfiabilityClosed)->Arg(8)->Arg(32)->Arg(64);

void BM_SatisfiabilityStrict(benchmark::State& state) {
  CacheOff cache_off;
  auto vars = bench::BenchVars(6);
  Conjunction closed = bench::RandomPolytope(
      vars, static_cast<int>(state.range(0)), /*seed=*/23);
  Conjunction strict;
  for (const LinearConstraint& atom : closed.atoms()) {
    strict.Add(atom.op() == RelOp::kLe
                   ? LinearConstraint(atom.lhs(), RelOp::kLt)
                   : atom);
  }
  bench::CounterDeltas obs_deltas(state);
  for (auto _ : state) {
    auto r = Simplex::IsSatisfiable(strict);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SatisfiabilityStrict)->Arg(8)->Arg(32)->Arg(64);

// The two shapes that dominate the cold-cache satisfiability checks of
// perfbench's solver_cold workload: 0 = a point in a box, 1 = the Q3 body
// with a cut. Substituting the equalities decides the first with no LP
// and leaves a small LP for the second.
void BM_SatisfiabilityWithEqualities(benchmark::State& state) {
  CacheOff cache_off;
  Conjunction c = state.range(0) == 0 ? PointInBox() : Q3BodyWithCut();
  bench::CounterDeltas obs_deltas(state);
  for (auto _ : state) {
    auto r = Simplex::IsSatisfiable(c);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SatisfiabilityWithEqualities)->Arg(0)->Arg(1);

// A satisfiability check the SolverCache answers: after the first call
// every iteration is a memo hit on the same conjunction (the arg is its
// constraint count, as in BM_SatisfiabilityClosed).
void BM_SolverCacheSatHit(benchmark::State& state) {
  auto vars = bench::BenchVars(6);
  Conjunction c = bench::RandomPolytope(
      vars, static_cast<int>(state.range(0)), /*seed=*/23);
  if (!SolverCache::Global().enabled()) {
    state.SkipWithError("the SolverCache is disabled");
    return;
  }
  (void)Simplex::IsSatisfiable(c);
  bench::CounterDeltas obs_deltas(state);
  for (auto _ : state) {
    auto r = Simplex::IsSatisfiable(c);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_SolverCacheSatHit)->Arg(64);

void BM_FindPointWithDisequalities(benchmark::State& state) {
  auto vars = bench::BenchVars(4);
  Conjunction c = bench::RandomPolytope(vars, 12, /*seed=*/25);
  // Puncture the polytope along several hyperplanes through the origin —
  // the witness point the epsilon LP finds often needs repair.
  for (int64_t k = 0; k < state.range(0); ++k) {
    LinearExpr e;
    e.AddTerm(vars[static_cast<size_t>(k) % vars.size()], Rational(1));
    e.AddTerm(vars[(static_cast<size_t>(k) + 1) % vars.size()],
              Rational(-1));
    c.Add(LinearConstraint(e, RelOp::kNeq));
  }
  bench::CounterDeltas obs_deltas(state);
  for (auto _ : state) {
    auto r = Simplex::FindPoint(c);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_FindPointWithDisequalities)->Arg(0)->Arg(2)->Arg(4);

}  // namespace
}  // namespace lyric
