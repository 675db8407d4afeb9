#include "constraint/canonical.h"

#include <algorithm>

#include "constraint/simplex.h"
#include "constraint/solver_cache.h"
#include "exec/governor.h"
#include "obs/metrics.h"

namespace lyric {

const char* CanonicalLevelToString(CanonicalLevel level) {
  switch (level) {
    case CanonicalLevel::kSyntactic:
      return "syntactic";
    case CanonicalLevel::kCheap:
      return "cheap";
    case CanonicalLevel::kRedundancy:
      return "redundancy";
  }
  return "?";
}

Conjunction Canonical::SolveEqualities(const Conjunction& c) {
  std::vector<LinearConstraint> atoms = c.atoms();
  // Each equality pivots at most once, on a variable no earlier equality
  // pivoted on — classic forward elimination into echelon form.
  VarSet used_pivots;
  std::set<size_t> pivoted;
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < atoms.size(); ++i) {
      if (!atoms[i].IsEquality() || pivoted.count(i)) continue;
      // Pick the lowest-id variable not yet used as a pivot.
      VarId pivot = 0;
      Rational coeff;
      bool found = false;
      for (const auto& [v, a] : atoms[i].lhs().terms()) {
        if (!used_pivots.count(v)) {
          pivot = v;
          coeff = a;
          found = true;
          break;
        }
      }
      if (!found) continue;
      used_pivots.insert(pivot);
      pivoted.insert(i);
      // pivot = -(rest)/coeff.
      LinearExpr rest = atoms[i].lhs();
      rest.AddTerm(pivot, -coeff);
      LinearExpr replacement = (-rest).Scale(coeff.Inverse());
      for (size_t j = 0; j < atoms.size(); ++j) {
        if (j == i) continue;
        atoms[j] = atoms[j].Substitute(pivot, replacement);
      }
      changed = true;
    }
  }
  Conjunction out;
  for (const LinearConstraint& atom : atoms) out.Add(atom);
  return out;
}

namespace {

Result<Conjunction> SimplifyConjunctionUncached(const Conjunction& c,
                                                CanonicalLevel level) {
  Conjunction cur = c;
  if (level >= CanonicalLevel::kCheap) {
    cur = Canonical::SolveEqualities(cur);
  }
  cur.SortAndDedupe();
  if (cur.HasConstantFalse()) return Conjunction::False();
  if (level >= CanonicalLevel::kCheap) {
    LYRIC_ASSIGN_OR_RETURN(bool sat, Simplex::IsSatisfiable(cur));
    if (!sat) return Conjunction::False();
  }
  if (level >= CanonicalLevel::kRedundancy) {
    // Greedy removal: an atom is dropped when the remaining atoms entail
    // it. Each test is one or two simplex calls.
    std::vector<LinearConstraint> kept = cur.atoms();
    for (size_t i = 0; i < kept.size();) {
      Conjunction rest;
      for (size_t j = 0; j < kept.size(); ++j) {
        if (j != i) rest.Add(kept[j]);
      }
      LYRIC_OBS_COUNT("canonical.redundancy_checks");
      bool redundant = false;
      const LinearConstraint& atom = kept[i];
      if (atom.IsEquality()) {
        LYRIC_ASSIGN_OR_RETURN(redundant,
                               Simplex::EntailsZero(rest, atom.lhs()));
      } else {
        // rest entails atom iff rest and not(atom) is unsatisfiable.
        bool any_sat = false;
        for (const LinearConstraint& neg : atom.Negate()) {
          Conjunction probe = rest;
          probe.Add(neg);
          LYRIC_ASSIGN_OR_RETURN(bool sat, Simplex::IsSatisfiable(probe));
          if (sat) {
            any_sat = true;
            break;
          }
        }
        redundant = !any_sat;
      }
      if (redundant) {
        LYRIC_OBS_COUNT("canonical.atoms_removed");
        kept.erase(kept.begin() + static_cast<ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    cur = Conjunction(std::move(kept));
    cur.SortAndDedupe();
  }
  return cur;
}

}  // namespace

Result<Conjunction> Canonical::Simplify(const Conjunction& c,
                                        CanonicalLevel level) {
  LYRIC_OBS_COUNT("canonical.simplify_calls");
  LYRIC_RETURN_NOT_OK(exec::CheckCancellation("canonical.simplify"));
  static obs::Histogram& simplify_hist =
      obs::Registry::Global().GetHistogram("canonical.simplify");
  obs::ScopedHistogramTimer scoped_timer(simplify_hist);
  // Memoize the LP-bearing levels only; kSyntactic simplification is
  // cheaper than the lookup itself.
  if (level < CanonicalLevel::kCheap) {
    return SimplifyConjunctionUncached(c, level);
  }
  SolverCache& cache = SolverCache::Global();
  if (std::optional<Conjunction> cached = cache.LookupCanonical(c, level)) {
    return *cached;
  }
  LYRIC_ASSIGN_OR_RETURN(Conjunction out,
                         SimplifyConjunctionUncached(c, level));
  cache.StoreCanonical(c, level, out);
  return out;
}

Result<Dnf> Canonical::Simplify(const Dnf& d, CanonicalLevel level) {
  std::vector<Conjunction> out;
  for (const Conjunction& c : d.disjuncts()) {
    LYRIC_ASSIGN_OR_RETURN(Conjunction s, Simplify(c, level));
    if (level >= CanonicalLevel::kCheap && s.HasConstantFalse()) {
      continue;  // Deletion of inconsistent disjuncts.
    }
    out.push_back(std::move(s));
  }
  // Sort + syntactic duplicate deletion.
  std::sort(out.begin(), out.end(),
            [](const Conjunction& a, const Conjunction& b) {
              return a.Compare(b) < 0;
            });
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return Dnf(std::move(out));
}

}  // namespace lyric
