// Existential conjunctive and disjunctive existential constraints (§3.1).
//
// The paper deliberately does NOT eliminate general existential
// quantifiers (the cost and the result size can be exponential); instead
// these two families *carry* their quantifiers:
//
//   existential conjunctive :  exists y1..yk . (conjunction)
//   disjunctive existential :  disjunction of the above
//
// Projection in these families is a constant-time operation (mark the
// dropped variables bound); satisfiability ignores the quantifier prefix;
// entailment and conversion to plain DNF eliminate quantifiers on demand.

#ifndef LYRIC_CONSTRAINT_EXISTENTIAL_H_
#define LYRIC_CONSTRAINT_EXISTENTIAL_H_

#include <optional>
#include <ostream>

#include "constraint/dnf.h"
#include "constraint/simplex.h"

namespace lyric {

/// exists bound . body — one disjunct of a disjunctive existential
/// constraint. Bound variables are kept renamed apart from free variables
/// of other formulas by the combination operations.
class ExistentialConjunction {
 public:
  /// Constructs TRUE (empty body, no quantifiers).
  ExistentialConjunction() = default;
  /// Quantifier-free wrapper.
  explicit ExistentialConjunction(Conjunction body)
      : body_(std::move(body)) {}
  /// exists (bound ∩ vars(body)) . body.
  ExistentialConjunction(Conjunction body, VarSet bound);

  const Conjunction& body() const { return body_; }
  const VarSet& bound() const { return bound_; }
  /// Free variables: vars(body) minus bound.
  VarSet FreeVars() const;

  /// Conjunction; both sides' bound variables are renamed apart first, so
  /// quantified variables never capture.
  ExistentialConjunction Conjoin(const ExistentialConjunction& o) const;

  /// Projection onto `keep`: free variables outside `keep` become bound.
  /// Always constant-time (this is why the family exists).
  ExistentialConjunction Project(const VarSet& keep) const;

  /// Renames free variables; bound variables are freshened first when a
  /// renaming target would collide with one.
  ExistentialConjunction RenameFree(
      const std::map<VarId, VarId>& renaming) const;

  /// Substitutes an expression for a free variable (capture-avoiding).
  ExistentialConjunction SubstituteFree(VarId var,
                                        const LinearExpr& replacement) const;

  /// Satisfiability (the quantifier prefix is irrelevant).
  Result<bool> Satisfiable() const;

  /// Truth for a total assignment of the free variables: substitutes and
  /// asks whether some assignment of the bound variables satisfies the
  /// body.
  Result<bool> EvalFree(const Assignment& assignment) const;

  /// Eliminates the bound variables (exponential worst case) yielding an
  /// equivalent quantifier-free conjunction.
  Result<Conjunction> ToConjunction() const;

  /// Returns a copy whose bound variables are fresh (used before mixing
  /// with other formulas).
  ExistentialConjunction FreshenBound() const;

  /// "exists y . (x - y <= 0)".
  std::string ToString() const;

  VarSet AllVars() const { return body_.FreeVars(); }

 private:
  Conjunction body_;
  VarSet bound_;
};

/// A disjunction of existential conjunctions — the largest family; every
/// other family embeds into it, and every LyriC CST formula normalizes to
/// it.
class DisjunctiveExistential {
 public:
  /// Constructs FALSE.
  DisjunctiveExistential() = default;
  explicit DisjunctiveExistential(ExistentialConjunction ec) {
    AddDisjunct(std::move(ec));
  }
  explicit DisjunctiveExistential(std::vector<ExistentialConjunction> ds)
      : disjuncts_(std::move(ds)) {}

  static DisjunctiveExistential True() {
    return DisjunctiveExistential(ExistentialConjunction());
  }
  static DisjunctiveExistential False() { return {}; }
  static DisjunctiveExistential FromDnf(const Dnf& d);
  static DisjunctiveExistential FromConjunction(Conjunction c) {
    return DisjunctiveExistential(ExistentialConjunction(std::move(c)));
  }

  const std::vector<ExistentialConjunction>& disjuncts() const {
    return disjuncts_;
  }
  bool IsFalse() const { return disjuncts_.empty(); }
  size_t size() const { return disjuncts_.size(); }

  void AddDisjunct(ExistentialConjunction ec);

  DisjunctiveExistential Or(const DisjunctiveExistential& o) const;
  /// Conjunction by distribution (capture-avoiding per pair).
  DisjunctiveExistential And(const DisjunctiveExistential& o) const;
  /// Projection onto `keep` (constant time per disjunct).
  DisjunctiveExistential Project(const VarSet& keep) const;

  DisjunctiveExistential RenameFree(
      const std::map<VarId, VarId>& renaming) const;
  DisjunctiveExistential SubstituteFree(VarId var,
                                        const LinearExpr& replacement) const;

  VarSet FreeVars() const;

  Result<bool> Satisfiable() const;
  /// A witness over the free variables of some satisfiable disjunct.
  Result<std::optional<Assignment>> FindPoint() const;
  /// The supremum of `objective`: the best disjunct's solution (an equal
  /// value is better when attained), or the first unbounded one. The
  /// witness may name freshened bound variables.
  Result<LpSolution> Maximize(const LinearExpr& objective) const;
  Result<bool> EvalFree(const Assignment& assignment) const;

  /// Quantifier elimination into a plain DNF (exponential worst case).
  Result<Dnf> ToDnf() const;

  /// this |= o over the free variables. Quantifiers on the left skolemize
  /// away; quantifiers on the right are eliminated via ToDnf.
  Result<bool> Entails(const DisjunctiveExistential& o) const;

  std::string ToString() const;

 private:
  std::vector<ExistentialConjunction> disjuncts_;
};

inline std::ostream& operator<<(std::ostream& os,
                                const ExistentialConjunction& e) {
  return os << e.ToString();
}
inline std::ostream& operator<<(std::ostream& os,
                                const DisjunctiveExistential& e) {
  return os << e.ToString();
}

}  // namespace lyric

#endif  // LYRIC_CONSTRAINT_EXISTENTIAL_H_
