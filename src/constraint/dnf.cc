#include "constraint/dnf.h"

#include <algorithm>

#include "constraint/fourier_motzkin.h"
#include "constraint/simplex.h"
#include "exec/governor.h"

namespace lyric {

Dnf::Dnf(std::vector<Conjunction> disjuncts) {
  for (Conjunction& c : disjuncts) AddDisjunct(std::move(c));
}

bool Dnf::IsTrue() const {
  for (const Conjunction& c : disjuncts_) {
    if (c.IsTrue()) return true;
  }
  return false;
}

void Dnf::AddDisjunct(Conjunction c) {
  if (c.HasConstantFalse()) return;
  disjuncts_.push_back(std::move(c));
}

Dnf Dnf::Or(const Dnf& o) const {
  Dnf out = *this;
  for (const Conjunction& c : o.disjuncts_) out.AddDisjunct(c);
  return out;
}

Dnf Dnf::And(const Dnf& o) const {
  Dnf out;
  // A governed product charges its atoms before building them (each atom
  // of one side is in as many results as the other side has disjuncts)
  // and samples the deadline every 1,024 disjuncts. On a trip the
  // truncated result never escapes: every Result-bearing consumer
  // re-checks the token.
  uint64_t atoms = 0;
  for (const Conjunction& a : disjuncts_) atoms += a.size() * o.size();
  for (const Conjunction& b : o.disjuncts_) atoms += b.size() * size();
  if (exec::AccountKernelMemory(atoms * sizeof(LinearConstraint), "dnf.and")) {
    return out;
  }
  size_t built = 0;
  for (const Conjunction& a : disjuncts_) {
    for (const Conjunction& b : o.disjuncts_) {
      if ((++built & 1023) == 0 && exec::CheckDeadline("dnf.and")) return out;
      out.AddDisjunct(a.Conjoin(b));
    }
  }
  return out;
}

Dnf Dnf::NegateConjunction(const Conjunction& c) {
  // not(a1 and ... and ak) = not(a1) or ... or not(ak); each atom's
  // negation is one atom, except equalities which split in two.
  Dnf out;
  if (c.IsTrue()) return Dnf::False();
  for (const LinearConstraint& atom : c.atoms()) {
    for (const LinearConstraint& neg : atom.Negate()) {
      Conjunction piece;
      piece.Add(neg);
      out.AddDisjunct(std::move(piece));
    }
  }
  return out;
}

Dnf Dnf::Negate() const {
  // not(C1 or ... or Cn) = not(C1) and ... and not(Cn).
  if (disjuncts_.empty()) return True();
  Dnf out = NegateConjunction(disjuncts_[0]);
  for (size_t i = 1; i < disjuncts_.size(); ++i) {
    if (exec::CancellationRequested()) break;  // Exponential; stop early.
    out = out.And(NegateConjunction(disjuncts_[i]));
  }
  return out;
}

Dnf Dnf::SplitDisequalities() const {
  Dnf out;
  for (const Conjunction& c : disjuncts_) {
    // Peel disequalities one by one, doubling the local disjunct list.
    std::vector<Conjunction> pending{Conjunction()};
    for (const LinearConstraint& atom : c.atoms()) {
      if (!atom.IsDisequality()) {
        for (Conjunction& p : pending) p.Add(atom);
        continue;
      }
      // A 2^k blow-up: charge each doubled list's atoms before building
      // it, and give up at once on a trip.
      if (exec::AccountKernelMemory(2 * pending.size() *
                                        (pending[0].size() + 1) *
                                        sizeof(LinearConstraint),
                                    "dnf.split_disequalities")) {
        return out;
      }
      LinearConstraint lt(atom.lhs(), RelOp::kLt);
      LinearConstraint gt(-atom.lhs(), RelOp::kLt);
      std::vector<Conjunction> next;
      next.reserve(pending.size() * 2);
      for (const Conjunction& p : pending) {
        Conjunction a = p;
        a.Add(lt);
        next.push_back(std::move(a));
        Conjunction b = p;
        b.Add(gt);
        next.push_back(std::move(b));
      }
      pending = std::move(next);
    }
    for (Conjunction& p : pending) out.AddDisjunct(std::move(p));
  }
  return out;
}

namespace {

// Applies a per-conjunct projection, splitting disequalities only in the
// disjuncts that need it.
template <typename Fn>
Result<Dnf> PerDisjunct(const Dnf& d, const VarSet& eliminated, Fn&& fn) {
  Dnf out;
  for (const Conjunction& c : d.disjuncts()) {
    bool needs_split = false;
    for (const LinearConstraint& atom : c.atoms()) {
      if (!atom.IsDisequality()) continue;
      for (const auto& [v, coeff] : atom.lhs().terms()) {
        (void)coeff;
        if (eliminated.count(v)) {
          needs_split = true;
          break;
        }
      }
      if (needs_split) break;
    }
    std::vector<Conjunction> pieces;
    if (needs_split) {
      Dnf split = Dnf(c).SplitDisequalities();
      pieces = split.disjuncts();
    } else {
      pieces = {c};
    }
    for (const Conjunction& piece : pieces) {
      LYRIC_ASSIGN_OR_RETURN(Conjunction projected, fn(piece));
      out.AddDisjunct(std::move(projected));
    }
  }
  // A split that tripped the governor returned early, maybe with no piece
  // for `fn` to check: report the trip rather than the truncated result.
  LYRIC_RETURN_NOT_OK(exec::CheckCancellation("dnf.project"));
  return out;
}

}  // namespace

Result<Dnf> Dnf::EliminateVariable(VarId var) const {
  return PerDisjunct(*this, VarSet{var}, [&](const Conjunction& c) {
    return FourierMotzkin::EliminateVariable(c, var);
  });
}

Result<Dnf> Dnf::ProjectOntoAtMostOne(std::optional<VarId> keep) const {
  VarSet keep_set;
  if (keep.has_value()) keep_set.insert(*keep);
  // The eliminated set differs per disjunct; gather the union.
  VarSet all_elim;
  for (const Conjunction& c : disjuncts_) {
    for (VarId v : FourierMotzkin::VarsToEliminate(c, keep_set)) {
      all_elim.insert(v);
    }
  }
  return PerDisjunct(*this, all_elim, [&](const Conjunction& c) {
    return FourierMotzkin::ProjectOntoAtMostOne(c, keep);
  });
}

Result<Dnf> Dnf::ProjectOnto(const VarSet& keep) const {
  VarSet all_elim;
  for (const Conjunction& c : disjuncts_) {
    for (VarId v : FourierMotzkin::VarsToEliminate(c, keep)) {
      all_elim.insert(v);
    }
  }
  return PerDisjunct(*this, all_elim, [&](const Conjunction& c) {
    return FourierMotzkin::ProjectOnto(c, keep);
  });
}

VarSet Dnf::FreeVars() const {
  VarSet out;
  for (const Conjunction& c : disjuncts_) c.CollectVars(&out);
  return out;
}

Dnf Dnf::Substitute(VarId var, const LinearExpr& replacement) const {
  Dnf out;
  for (const Conjunction& c : disjuncts_) {
    out.AddDisjunct(c.Substitute(var, replacement));
  }
  return out;
}

Dnf Dnf::Rename(const std::map<VarId, VarId>& renaming) const {
  Dnf out;
  for (const Conjunction& c : disjuncts_) {
    out.AddDisjunct(c.Rename(renaming));
  }
  return out;
}

Result<bool> Dnf::Satisfiable() const {
  LYRIC_RETURN_NOT_OK(exec::CheckCancellation("dnf.satisfiable"));
  for (const Conjunction& c : disjuncts_) {
    LYRIC_ASSIGN_OR_RETURN(bool sat, Simplex::IsSatisfiable(c));
    if (sat) return true;
  }
  return false;
}

Result<std::optional<Assignment>> Dnf::FindPoint() const {
  LYRIC_RETURN_NOT_OK(exec::CheckCancellation("dnf.find_point"));
  for (const Conjunction& c : disjuncts_) {
    LYRIC_ASSIGN_OR_RETURN(std::optional<Assignment> pt,
                           Simplex::FindPoint(c));
    if (pt.has_value()) return pt;
  }
  return std::optional<Assignment>();
}

Result<bool> Dnf::Eval(const Assignment& assignment) const {
  for (const Conjunction& c : disjuncts_) {
    LYRIC_ASSIGN_OR_RETURN(bool holds, c.Eval(assignment));
    if (holds) return true;
  }
  return false;
}

int Dnf::Compare(const Dnf& o) const {
  size_t n = std::min(disjuncts_.size(), o.disjuncts_.size());
  for (size_t i = 0; i < n; ++i) {
    int c = disjuncts_[i].Compare(o.disjuncts_[i]);
    if (c != 0) return c;
  }
  if (disjuncts_.size() != o.disjuncts_.size()) {
    return disjuncts_.size() < o.disjuncts_.size() ? -1 : 1;
  }
  return 0;
}

std::string Dnf::ToString() const {
  if (disjuncts_.empty()) return "false";
  if (disjuncts_.size() == 1) return disjuncts_[0].ToString();
  std::string out;
  for (size_t i = 0; i < disjuncts_.size(); ++i) {
    if (i > 0) out += " or ";
    out += "(" + disjuncts_[i].ToString() + ")";
  }
  return out;
}

size_t Dnf::Hash() const {
  size_t h = 0x777;
  for (const Conjunction& c : disjuncts_) {
    h ^= c.Hash() + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  return h;
}

}  // namespace lyric
