#include "constraint/simplex.h"

#include <algorithm>
#include <cassert>

#include "constraint/canonical.h"
#include "constraint/solver_cache.h"
#include "exec/governor.h"
#include "obs/metrics.h"

namespace lyric {

const char* LpStatusToString(LpStatus status) {
  switch (status) {
    case LpStatus::kOptimal:
      return "optimal";
    case LpStatus::kInfeasible:
      return "infeasible";
    case LpStatus::kUnbounded:
      return "unbounded";
  }
  return "?";
}

std::optional<LpStatus> LpStatusFromString(std::string_view s) {
  if (s == "optimal") return LpStatus::kOptimal;
  if (s == "infeasible") return LpStatus::kInfeasible;
  if (s == "unbounded") return LpStatus::kUnbounded;
  return std::nullopt;
}

namespace {

// ---------------------------------------------------------------------------
// Core tableau simplex (maximization, all variables >= 0, Bland's rule).
// ---------------------------------------------------------------------------

struct CoreSolution {
  LpStatus status = LpStatus::kInfeasible;
  Rational value;
  std::vector<Rational> point;  // one value per column
};

// A two-phase primal simplex over exact rationals on a dense tableau whose
// pivots skip zero cells. Columns are non-negative decision variables; rows
// are equality constraints (callers add slack columns for inequalities).
class CoreLp {
 public:
  explicit CoreLp(size_t num_cols) : num_cols_(num_cols) {}

  // Adds the row `coeffs . y = rhs`.
  void AddRow(std::vector<Rational> coeffs, Rational rhs) {
    assert(coeffs.size() == num_cols_);
    rows_.push_back(std::move(coeffs));
    rhs_.push_back(std::move(rhs));
  }

  // Maximizes `obj . y` (+ nothing; callers track constants).
  CoreSolution Maximize(const std::vector<Rational>& obj) {
    assert(obj.size() == num_cols_);
    LYRIC_OBS_COUNT("simplex.lp_solves");
    static obs::Histogram& solve_hist =
        obs::Registry::Global().GetHistogram("simplex.solve");
    obs::ScopedHistogramTimer scoped_timer(solve_hist);
    // The tableau (rows + artificials) is the dominant transient
    // allocation; charge it against the governor's memory budget.
    exec::AccountKernelMemory(
        rows_.size() * (num_cols_ + rows_.size()) * sizeof(Rational),
        "simplex.tableau");
    // Normalize rhs >= 0.
    for (size_t i = 0; i < rows_.size(); ++i) {
      if (rhs_[i].IsNegative()) {
        for (Rational& a : rows_[i]) a = -a;
        rhs_[i] = -rhs_[i];
      }
    }
    // Phase 1: add one artificial per row, minimize their sum.
    size_t m = rows_.size();
    size_t total_cols = num_cols_ + m;
    for (size_t i = 0; i < m; ++i) {
      for (size_t r = 0; r < m; ++r) {
        rows_[r].push_back(Rational(r == i ? 1 : 0));
      }
    }
    basis_.resize(m);
    for (size_t i = 0; i < m; ++i) basis_[i] = num_cols_ + i;

    // Phase-1 objective: maximize -(sum of artificials). Reduced-cost row.
    std::vector<Rational> z(total_cols);
    Rational zval;
    for (size_t j = num_cols_; j < total_cols; ++j) z[j] = Rational(-1);
    // Artificials are basic with cost -1: fold their rows into z.
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < total_cols; ++j) {
        if (!rows_[i][j].IsZero()) z[j] += rows_[i][j];
      }
      zval -= rhs_[i];
    }
    static obs::Counter& phase1_iters =
        obs::Registry::Global().GetCounter("simplex.phase1_iterations");
    LpStatus st = RunSimplex(&z, &zval, total_cols, &phase1_iters);
    (void)st;  // Phase 1 cannot be unbounded (objective <= 0).
    if (!zval.IsZero()) {
      LYRIC_OBS_COUNT("simplex.lp_infeasible");
      return {LpStatus::kInfeasible, Rational(), {}};
    }
    // Drive any artificial out of the basis.
    for (size_t i = 0; i < m; ++i) {
      if (basis_[i] < num_cols_) continue;
      size_t pivot_col = num_cols_;
      bool found = false;
      for (size_t j = 0; j < num_cols_; ++j) {
        if (!rows_[i][j].IsZero()) {
          pivot_col = j;
          found = true;
          break;
        }
      }
      if (found) {
        Pivot(i, pivot_col, &z, &zval, total_cols);
      }
      // else: the row is 0 = 0 over structural columns; harmless.
    }
    // Phase 2: real objective, restricted to structural columns (keep the
    // artificial columns but forbid them from entering by giving reduced
    // cost handling below a hard cutoff at num_cols_).
    std::vector<Rational> z2(total_cols);
    Rational z2val;
    for (size_t j = 0; j < num_cols_; ++j) z2[j] = obj[j];
    for (size_t i = 0; i < m; ++i) {
      size_t b = basis_[i];
      if (b < num_cols_ && !obj[b].IsZero()) {
        Rational c = obj[b];
        for (size_t j = 0; j < total_cols; ++j) {
          if (!rows_[i][j].IsZero()) z2[j] -= c * rows_[i][j];
        }
        z2val += c * rhs_[i];
      }
    }
    static obs::Counter& phase2_iters =
        obs::Registry::Global().GetCounter("simplex.phase2_iterations");
    LpStatus st2 = RunSimplex(&z2, &z2val, num_cols_, &phase2_iters);
    if (st2 == LpStatus::kUnbounded) {
      LYRIC_OBS_COUNT("simplex.lp_unbounded");
      return {LpStatus::kUnbounded, Rational(), {}};
    }
    CoreSolution out;
    out.status = LpStatus::kOptimal;
    out.value = z2val;
    out.point.assign(num_cols_, Rational());
    for (size_t i = 0; i < m; ++i) {
      if (basis_[i] < num_cols_) out.point[basis_[i]] = rhs_[i];
    }
    return out;
  }

 private:
  // Runs simplex with Dantzig's largest-coefficient rule, falling back to
  // Bland's rule (which cannot cycle) once the iteration count suggests
  // degeneracy. Entering columns are restricted to [0, entering_limit).
  // `iteration_counter` receives one increment per simplex iteration.
  LpStatus RunSimplex(std::vector<Rational>* z, Rational* zval,
                      size_t entering_limit,
                      obs::Counter* iteration_counter) {
    const size_t bland_after = 20 * (rows_.size() + entering_limit) + 200;
    size_t iterations = 0;
    for (;;) {
      // Cooperative cancellation: pivots are counted per iteration and
      // the wall clock sampled every 64. On a trip we bail with a dummy
      // status — the governed public entry points re-check the token
      // before publishing, so this value never escapes.
      if (exec::AccountPivots(1, "simplex.run") ||
          ((iterations & 63) == 0 &&
           exec::CurrentToken() != nullptr &&
           exec::CurrentToken()->CheckDeadline("simplex.run"))) {
        return LpStatus::kInfeasible;
      }
      iteration_counter->Increment();
      size_t enter = entering_limit;
      if (iterations++ < bland_after) {
        // Dantzig: most positive reduced cost.
        for (size_t j = 0; j < entering_limit; ++j) {
          if ((*z)[j].Sign() > 0 &&
              (enter == entering_limit || (*z)[j] > (*z)[enter])) {
            enter = j;
          }
        }
      } else {
        // Bland: smallest-index column with positive reduced cost.
        for (size_t j = 0; j < entering_limit; ++j) {
          if ((*z)[j].Sign() > 0) {
            enter = j;
            break;
          }
        }
      }
      if (enter == entering_limit) return LpStatus::kOptimal;
      // Ratio test with Bland tie-break on the leaving basic variable.
      size_t leave = rows_.size();
      Rational best_ratio;
      for (size_t i = 0; i < rows_.size(); ++i) {
        if (rows_[i][enter].Sign() <= 0) continue;
        Rational ratio = rhs_[i] / rows_[i][enter];
        if (leave == rows_.size() || ratio < best_ratio ||
            (ratio == best_ratio && basis_[i] < basis_[leave])) {
          leave = i;
          best_ratio = ratio;
        }
      }
      if (leave == rows_.size()) return LpStatus::kUnbounded;
      Pivot(leave, enter, z, zval, z->size());
    }
  }

  // Pivots on (row, col). Elimination touches only the columns where the
  // pivot row is non-zero: elsewhere x - f * 0 == x exactly, so the sparse
  // update yields the very tableau the dense one would.
  void Pivot(size_t row, size_t col, std::vector<Rational>* z, Rational* zval,
             size_t total_cols) {
    LYRIC_OBS_COUNT("simplex.pivots");
    std::vector<Rational>& prow = rows_[row];
    assert(!prow[col].IsZero());
    Rational inv = prow[col].Inverse();
    pivot_cols_.clear();
    for (size_t j = 0; j < total_cols; ++j) {
      if (prow[j].IsZero()) continue;
      prow[j] *= inv;
      pivot_cols_.push_back(j);
    }
    rhs_[row] *= inv;
    // Subtracts f times the pivot row from `target`, f = target[col], and
    // returns f.
    auto eliminate = [&](std::vector<Rational>& target) {
      Rational f = target[col];
      if (!f.IsZero()) {
        for (size_t j : pivot_cols_) target[j] -= f * prow[j];
      }
      return f;
    };
    for (size_t i = 0; i < rows_.size(); ++i) {
      if (i == row) continue;
      Rational f = eliminate(rows_[i]);
      if (!f.IsZero()) rhs_[i] -= f * rhs_[row];
    }
    Rational fz = eliminate(*z);
    if (!fz.IsZero()) *zval += fz * rhs_[row];
    basis_[row] = col;
  }

  size_t num_cols_;
  std::vector<std::vector<Rational>> rows_;
  std::vector<Rational> rhs_;
  std::vector<size_t> basis_;
  std::vector<size_t> pivot_cols_;  // Pivot's non-zero columns (reused).
};

// ---------------------------------------------------------------------------
// Translation from conjunctions over free variables to the core form.
// ---------------------------------------------------------------------------

// Splits the atoms of `c` by kind. Constant atoms were already folded by
// Conjunction::Add; a remaining constant-false collapses to False().
struct SplitAtoms {
  std::vector<LinearConstraint> closed;  // kEq, kLe
  std::vector<LinearConstraint> strict;  // kLt
  std::vector<LinearConstraint> diseq;   // kNeq
};

SplitAtoms Split(const Conjunction& c) {
  SplitAtoms out;
  for (const LinearConstraint& atom : c.atoms()) {
    switch (atom.op()) {
      case RelOp::kEq:
      case RelOp::kLe:
        out.closed.push_back(atom);
        break;
      case RelOp::kLt:
        out.strict.push_back(atom);
        break;
      case RelOp::kNeq:
        out.diseq.push_back(atom);
        break;
    }
  }
  return out;
}

// Maps each free variable to a pair of non-negative columns (v = y+ - y-),
// plus an optional epsilon column at the end.
class VarMap {
 public:
  VarMap(const Conjunction& c, const LinearExpr& extra, bool with_epsilon) {
    VarSet vars = c.FreeVars();
    extra.CollectVars(&vars);
    for (VarId v : vars) {
      col_of_[v] = vars_.size() * 2;
      vars_.push_back(v);
    }
    with_epsilon_ = with_epsilon;
  }

  size_t num_cols() const { return vars_.size() * 2 + (with_epsilon_ ? 1 : 0); }
  size_t epsilon_col() const {
    assert(with_epsilon_);
    return vars_.size() * 2;
  }

  // Expands `expr relop 0` (with optional +epsilon on the lhs) into a core
  // row `coeffs . y = -constant`, adding a slack column value via the
  // caller. Returns the coefficient vector over the split columns (epsilon
  // included, slack NOT included).
  std::vector<Rational> ExpandCoeffs(const LinearExpr& expr,
                                     bool add_epsilon) const {
    std::vector<Rational> out(num_cols());
    for (const auto& [var, coeff] : expr.terms()) {
      size_t col = col_of_.at(var);
      out[col] = coeff;
      out[col + 1] = -coeff;
    }
    if (add_epsilon) out[epsilon_col()] = Rational(1);
    return out;
  }

  Assignment PointFromCols(const std::vector<Rational>& cols) const {
    Assignment out;
    for (size_t k = 0; k < vars_.size(); ++k) {
      out[vars_[k]] = cols[2 * k] - cols[2 * k + 1];
    }
    return out;
  }

 private:
  std::vector<VarId> vars_;
  std::map<VarId, size_t> col_of_;
  bool with_epsilon_ = false;
};

struct ClosedLpResult {
  LpStatus status = LpStatus::kInfeasible;
  Rational value;
  Assignment point;
  Rational epsilon;  // value of the epsilon column, when used
};

// Solves max/min `objective` over the *closed* system given by
// `closed` atoms plus `strict` atoms relaxed as (expr + eps <= 0) when
// `use_epsilon`, or as (expr <= 0) otherwise. When `use_epsilon`, the
// objective must be empty and the LP maximizes eps subject to eps <= 1.
ClosedLpResult SolveClosed(const SplitAtoms& atoms,
                           const LinearExpr& objective, bool maximize,
                           bool use_epsilon) {
  VarMap vm(Conjunction(), objective, use_epsilon);
  // VarMap needs all constraint vars too; rebuild with a conjunction view.
  std::vector<LinearConstraint> all = atoms.closed;
  all.insert(all.end(), atoms.strict.begin(), atoms.strict.end());
  Conjunction cview(all);
  vm = VarMap(cview, objective, use_epsilon);

  // Count slack columns: one per inequality row (closed kLe + all strict
  // rows) plus one for the eps <= 1 bound row.
  size_t num_ineq = 0;
  for (const LinearConstraint& a : atoms.closed) {
    if (a.op() == RelOp::kLe) ++num_ineq;
  }
  num_ineq += atoms.strict.size();
  if (use_epsilon) ++num_ineq;  // eps <= 1

  size_t struct_cols = vm.num_cols();
  size_t total = struct_cols + num_ineq;
  CoreLp lp(total);

  size_t slack = struct_cols;
  auto add_atom_row = [&](const LinearExpr& expr, bool is_eq,
                          bool add_epsilon) {
    std::vector<Rational> coeffs = vm.ExpandCoeffs(expr, add_epsilon);
    coeffs.resize(total);
    if (!is_eq) coeffs[slack++] = Rational(1);
    // expr <= 0  ==>  terms . y + slack = -constant.
    lp.AddRow(std::move(coeffs), -expr.constant());
  };

  for (const LinearConstraint& a : atoms.closed) {
    add_atom_row(a.lhs(), a.op() == RelOp::kEq, false);
  }
  for (const LinearConstraint& a : atoms.strict) {
    add_atom_row(a.lhs(), false, use_epsilon);
  }
  if (use_epsilon) {
    // eps <= 1.
    std::vector<Rational> coeffs(total);
    coeffs[vm.epsilon_col()] = Rational(1);
    coeffs[slack++] = Rational(1);
    lp.AddRow(std::move(coeffs), Rational(1));
  }

  std::vector<Rational> obj(total);
  Rational obj_constant;
  if (use_epsilon) {
    obj[vm.epsilon_col()] = Rational(1);
  } else {
    LinearExpr dir = maximize ? objective : -objective;
    std::vector<Rational> expanded = vm.ExpandCoeffs(dir, false);
    for (size_t j = 0; j < expanded.size(); ++j) obj[j] = expanded[j];
    obj_constant = dir.constant();
  }

  CoreSolution core = lp.Maximize(obj);
  ClosedLpResult out;
  out.status = core.status;
  if (core.status != LpStatus::kOptimal) return out;
  out.value = core.value + obj_constant;
  if (!use_epsilon && !maximize) out.value = -out.value;
  out.point = vm.PointFromCols(core.point);
  if (use_epsilon) out.epsilon = core.point[vm.epsilon_col()];
  return out;
}

// Satisfiability of closed + strict atoms only (no disequalities).
// Returns the epsilon-LP result so callers can reuse the interior point.
ClosedLpResult SatNoDiseq(const SplitAtoms& atoms) {
  if (atoms.strict.empty()) {
    ClosedLpResult r = SolveClosed(atoms, LinearExpr(), true, false);
    if (r.status == LpStatus::kUnbounded) {
      // Zero objective cannot be unbounded; defensive.
      r.status = LpStatus::kOptimal;
    }
    r.epsilon = Rational(1);  // No strict atoms: any feasible point works.
    return r;
  }
  ClosedLpResult r = SolveClosed(atoms, LinearExpr(), true, true);
  if (r.status == LpStatus::kOptimal && r.epsilon.Sign() <= 0) {
    r.status = LpStatus::kInfeasible;  // Only the closure is feasible.
  }
  return r;
}

// The closure of the atoms: strict atoms become non-strict, disequalities
// are dropped.
SplitAtoms ClosureAtoms(const SplitAtoms& atoms) {
  SplitAtoms out;
  out.closed = atoms.closed;
  for (const LinearConstraint& a : atoms.strict) {
    out.closed.push_back(a.Closure());
  }
  return out;
}

// True iff expr == 0 everywhere on the (closed) feasible set; vacuously
// true when infeasible.
bool ClosedEntailsZero(const SplitAtoms& closure, const LinearExpr& expr) {
  ClosedLpResult mx = SolveClosed(closure, expr, true, false);
  if (mx.status == LpStatus::kInfeasible) return true;
  if (mx.status == LpStatus::kUnbounded || !mx.value.IsZero()) return false;
  ClosedLpResult mn = SolveClosed(closure, expr, false, false);
  if (mn.status == LpStatus::kUnbounded || !mn.value.IsZero()) return false;
  return true;
}

}  // namespace

Result<bool> Simplex::IsSatisfiable(const Conjunction& c) {
  LYRIC_OBS_COUNT("simplex.calls.is_satisfiable");
  LYRIC_RETURN_NOT_OK(exec::CheckCancellation("simplex.is_satisfiable"));
  SolverCache& cache = SolverCache::Global();
  if (std::optional<bool> cached = cache.LookupSat(c)) return *cached;
  bool sat = [&] {
    // Presolve: once the equalities are solved, each one is the only atom
    // that mentions its pivot variable, so it holds for some value of that
    // variable whatever the others are. The atoms left are then
    // satisfiable exactly when `c` is, and often decide it with no LP.
    Conjunction solved = Canonical::SolveEqualities(c);
    if (solved.HasConstantFalse()) return false;
    SplitAtoms atoms = Split(solved);
    std::erase_if(atoms.closed, [](const LinearConstraint& atom) {
      return atom.IsEquality();
    });
    if (atoms.closed.empty() && atoms.strict.empty() && atoms.diseq.empty()) {
      return true;
    }
    ClosedLpResult base = SatNoDiseq(atoms);
    if (base.status != LpStatus::kOptimal) return false;
    // A nonempty convex set lies inside a finite union of hyperplanes iff
    // it lies inside one of them, so the disequalities can be checked one
    // at a time against the closure.
    SplitAtoms closure = ClosureAtoms(atoms);
    for (const LinearConstraint& d : atoms.diseq) {
      if (ClosedEntailsZero(closure, d.lhs())) return false;
    }
    return true;
  }();
  // A tripped run may have bailed mid-solve: report the trip and never
  // store the (possibly bogus) verdict.
  LYRIC_RETURN_NOT_OK(exec::CheckCancellation("simplex.is_satisfiable"));
  cache.StoreSat(c, sat);
  return sat;
}

Result<std::optional<Assignment>> Simplex::FindPoint(const Conjunction& c) {
  LYRIC_OBS_COUNT("simplex.calls.find_point");
  LYRIC_RETURN_NOT_OK(exec::CheckCancellation("simplex.find_point"));
  LYRIC_ASSIGN_OR_RETURN(bool sat, IsSatisfiable(c));
  if (!sat) return std::optional<Assignment>();

  SplitAtoms atoms = Split(c);
  ClosedLpResult base = SatNoDiseq(atoms);
  Assignment x = base.point;

  // x satisfies the closed and strict atoms. Repair each violated
  // disequality by blending toward a witness that breaks it; convexity
  // keeps the closed atoms satisfied and a small enough step keeps the
  // strict ones.
  SplitAtoms closure = ClosureAtoms(atoms);
  for (const LinearConstraint& d : atoms.diseq) {
    Rational tx = d.lhs().Eval(x).ValueOr(Rational());
    if (!tx.IsZero()) continue;
    // Find y in the closure with t(y) != 0 (exists: IsSatisfiable passed).
    ClosedLpResult mx = SolveClosed(closure, d.lhs(), true, false);
    ClosedLpResult pick = mx;
    if (mx.status != LpStatus::kOptimal || mx.value.IsZero()) {
      ClosedLpResult mn = SolveClosed(closure, d.lhs(), false, false);
      pick = mn;
    }
    if (pick.status != LpStatus::kOptimal) {
      // Unbounded objective: walk a little along the improving ray is not
      // directly available from the tableau; fall back to a bounded probe
      // by adding |t| <= 1... simpler: bound t in [-1, 1] and re-solve.
      SplitAtoms bounded = closure;
      bounded.closed.push_back(
          LinearConstraint(d.lhs() - LinearExpr::Constant(Rational(1)),
                           RelOp::kLe));
      bounded.closed.push_back(
          LinearConstraint(-d.lhs() - LinearExpr::Constant(Rational(1)),
                           RelOp::kLe));
      pick = SolveClosed(bounded, d.lhs(), true, false);
      if (pick.status != LpStatus::kOptimal || pick.value.IsZero()) {
        pick = SolveClosed(bounded, d.lhs(), false, false);
      }
    }
    if (pick.status != LpStatus::kOptimal || pick.value.IsZero()) {
      // A governed run may have bailed out of the witness LP mid-solve;
      // report the trip rather than a spurious internal error.
      LYRIC_RETURN_NOT_OK(exec::CheckCancellation("simplex.find_point"));
      return Status::Internal("FindPoint: no witness for disequality " +
                              d.ToString());
    }
    const Assignment& y = pick.point;
    // Largest step bound that keeps every strict atom satisfied.
    Rational bound(1);
    for (const LinearConstraint& s : atoms.strict) {
      Rational ex = s.lhs().Eval(x).ValueOr(Rational());
      // Fill in any variable of s missing from x or y as 0 — cannot happen
      // because VarMap covered all constraint vars.
      Rational ey = s.lhs().Eval(y).ValueOr(Rational());
      if (ey >= ex) {
        if (ey == ex) continue;  // Constant along the segment; stays < 0.
        // (1-l)ex + l*ey < 0  <=>  l < -ex / (ey - ex).
        Rational lim = (-ex) / (ey - ex);
        if (lim < bound) bound = lim;
      }
    }
    // Choose l in (0, bound) avoiding the finitely many values where some
    // other disequality's expression crosses zero.
    for (int denom = 2;; ++denom) {
      Rational l = bound * Rational(1, denom);
      Assignment cand;
      for (const auto& [var, vx] : x) {
        Rational vy = vx;
        auto it = y.find(var);
        if (it != y.end()) vy = it->second;
        cand[var] = vx + (vy - vx) * l;
      }
      // y may have variables x lacks (same VarMap; defensive).
      for (const auto& [var, vy] : y) {
        if (!cand.count(var)) cand[var] = vy * l;
      }
      bool ok = true;
      for (const LinearConstraint& d2 : atoms.diseq) {
        Rational v = d2.lhs().Eval(cand).ValueOr(Rational(1));
        // Only reject candidates that break an already-satisfied (or the
        // current) disequality; each disequality excludes at most one l.
        if (v.IsZero() && (&d2 == &d || !d2.lhs().Eval(x).ValueOr(
                                            Rational(1)).IsZero())) {
          ok = false;
          break;
        }
      }
      if (ok) {
        x = std::move(cand);
        break;
      }
      if (denom > static_cast<int>(atoms.diseq.size()) + 4) {
        return Status::Internal("FindPoint: step selection failed");
      }
    }
  }
  LYRIC_RETURN_NOT_OK(exec::CheckCancellation("simplex.find_point"));
  return std::optional<Assignment>(std::move(x));
}

Result<LpSolution> Simplex::Maximize(const LinearExpr& objective,
                                     const Conjunction& c) {
  LYRIC_OBS_COUNT("simplex.calls.maximize");
  LYRIC_RETURN_NOT_OK(exec::CheckCancellation("simplex.maximize"));
  LpSolution out;
  {
    // Fast path: a closed system (no strict atoms, no disequalities) needs
    // exactly one LP — the optimum is always attained.
    SplitAtoms atoms = Split(c);
    if (atoms.strict.empty() && atoms.diseq.empty()) {
      ClosedLpResult r = SolveClosed(atoms, objective, true, false);
      LYRIC_RETURN_NOT_OK(exec::CheckCancellation("simplex.maximize"));
      out.status = r.status;
      if (r.status == LpStatus::kOptimal) {
        out.value = r.value;
        out.attained = true;
        out.point = std::move(r.point);
      }
      return out;
    }
  }
  LYRIC_ASSIGN_OR_RETURN(bool sat, IsSatisfiable(c));
  if (!sat) {
    out.status = LpStatus::kInfeasible;
    return out;
  }
  SplitAtoms atoms = Split(c);
  SplitAtoms closure = ClosureAtoms(atoms);
  ClosedLpResult r = SolveClosed(closure, objective, true, false);
  if (r.status == LpStatus::kUnbounded) {
    out.status = LpStatus::kUnbounded;
    return out;
  }
  if (r.status != LpStatus::kOptimal) {
    LYRIC_RETURN_NOT_OK(exec::CheckCancellation("simplex.maximize"));
    return Status::Internal("closure infeasible after sat check");
  }
  out.status = LpStatus::kOptimal;
  out.value = r.value;
  // Attained iff the original set meets the optimal face.
  Conjunction on_face = c;
  on_face.Add(LinearConstraint(objective - LinearExpr::Constant(out.value),
                               RelOp::kEq));
  LYRIC_ASSIGN_OR_RETURN(std::optional<Assignment> pt, FindPoint(on_face));
  if (pt.has_value()) {
    out.attained = true;
    out.point = std::move(*pt);
  } else {
    out.attained = false;
    out.point = r.point;
  }
  return out;
}

Result<LpSolution> Simplex::Minimize(const LinearExpr& objective,
                                     const Conjunction& c) {
  LYRIC_ASSIGN_OR_RETURN(LpSolution neg, Maximize(-objective, c));
  neg.value = -neg.value;
  return neg;
}

Result<bool> Simplex::EntailsZero(const Conjunction& c,
                                  const LinearExpr& expr) {
  LYRIC_OBS_COUNT("simplex.calls.entails_zero");
  LYRIC_RETURN_NOT_OK(exec::CheckCancellation("simplex.entails_zero"));
  SplitAtoms atoms = Split(c);
  // If c itself is unsatisfiable, entailment holds vacuously.
  LYRIC_ASSIGN_OR_RETURN(bool sat, IsSatisfiable(c));
  if (!sat) return true;
  // With c satisfiable, disequalities cannot change the entailment (the
  // punctured set and its closure entail the same linear equalities).
  bool entails = ClosedEntailsZero(ClosureAtoms(atoms), expr);
  LYRIC_RETURN_NOT_OK(exec::CheckCancellation("simplex.entails_zero"));
  return entails;
}

}  // namespace lyric
