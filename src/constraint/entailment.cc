#include "constraint/entailment.h"

#include "constraint/simplex.h"
#include "constraint/solver_cache.h"
#include "exec/governor.h"
#include "obs/metrics.h"

namespace lyric {

namespace {

// Clause: a disjunction of single atoms (negation of one rhs disjunct).
using Clause = std::vector<LinearConstraint>;

// Is `base` together with one literal from each of clauses[idx..]
// satisfiable? DPLL-style with feasibility pruning.
Result<bool> SatWithClauses(const Conjunction& base,
                            const std::vector<Clause>& clauses, size_t idx) {
  LYRIC_OBS_COUNT("entailment.branches");
  LYRIC_ASSIGN_OR_RETURN(bool sat, Simplex::IsSatisfiable(base));
  if (!sat) return false;
  if (idx == clauses.size()) return true;
  for (const LinearConstraint& literal : clauses[idx]) {
    Conjunction next = base;
    next.Add(literal);
    LYRIC_ASSIGN_OR_RETURN(bool branch_sat,
                           SatWithClauses(next, clauses, idx + 1));
    if (branch_sat) return true;
  }
  return false;
}

}  // namespace

Result<bool> Entailment::ConjunctionEntails(const Conjunction& lhs,
                                            const Dnf& rhs) {
  LYRIC_OBS_COUNT("entailment.checks");
  static obs::Histogram& check_hist =
      obs::Registry::Global().GetHistogram("entailment.check");
  obs::ScopedHistogramTimer scoped_timer(check_hist);
  // The DPLL recursion below checks the token through every
  // Simplex::IsSatisfiable call; a trip propagates out as an error before
  // the verdict reaches StoreEntails.
  LYRIC_RETURN_NOT_OK(exec::CheckCancellation("entailment.entails"));
  SolverCache& cache = SolverCache::Global();
  if (std::optional<bool> cached = cache.LookupEntails(lhs, rhs)) {
    return *cached;
  }
  // lhs |= D1 or ... or Dk  iff  lhs and not(D1) and ... and not(Dk) unsat.
  std::vector<Clause> clauses;
  clauses.reserve(rhs.size());
  bool holds;
  bool trivially_true = false;
  for (const Conjunction& d : rhs.disjuncts()) {
    if (d.IsTrue()) {
      trivially_true = true;  // rhs contains TRUE.
      break;
    }
    Clause clause;
    for (const LinearConstraint& atom : d.atoms()) {
      for (const LinearConstraint& neg : atom.Negate()) {
        clause.push_back(neg);
      }
    }
    clauses.push_back(std::move(clause));
  }
  if (trivially_true) {
    holds = true;
  } else {
    LYRIC_ASSIGN_OR_RETURN(bool counterexample,
                           SatWithClauses(lhs, clauses, 0));
    holds = !counterexample;
  }
  cache.StoreEntails(lhs, rhs, holds);
  return holds;
}

Result<bool> Entailment::Entails(const Dnf& lhs, const Dnf& rhs) {
  for (const Conjunction& c : lhs.disjuncts()) {
    LYRIC_ASSIGN_OR_RETURN(bool ok, ConjunctionEntails(c, rhs));
    if (!ok) return false;
  }
  return true;
}

Result<bool> Entailment::Equivalent(const Dnf& a, const Dnf& b) {
  LYRIC_ASSIGN_OR_RETURN(bool ab, Entails(a, b));
  if (!ab) return false;
  return Entails(b, a);
}

Result<bool> Entailment::Disjoint(const Dnf& a, const Dnf& b) {
  LYRIC_ASSIGN_OR_RETURN(bool overlap, Overlaps(a, b));
  return !overlap;
}

}  // namespace lyric
