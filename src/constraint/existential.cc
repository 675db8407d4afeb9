#include "constraint/existential.h"

#include "constraint/entailment.h"
#include "constraint/fourier_motzkin.h"
#include "constraint/simplex.h"
#include "exec/governor.h"

namespace lyric {

ExistentialConjunction::ExistentialConjunction(Conjunction body, VarSet bound)
    : body_(std::move(body)) {
  VarSet in_body = body_.FreeVars();
  for (VarId v : bound) {
    if (in_body.count(v)) bound_.insert(v);
  }
}

VarSet ExistentialConjunction::FreeVars() const {
  VarSet out;
  for (VarId v : body_.FreeVars()) {
    if (!bound_.count(v)) out.insert(v);
  }
  return out;
}

ExistentialConjunction ExistentialConjunction::FreshenBound() const {
  if (bound_.empty()) return *this;
  std::map<VarId, VarId> renaming;
  VarSet new_bound;
  for (VarId v : bound_) {
    VarId fresh = Variable::Fresh(Variable::Name(v));
    renaming[v] = fresh;
    new_bound.insert(fresh);
  }
  ExistentialConjunction out;
  out.body_ = body_.Rename(renaming);
  out.bound_ = std::move(new_bound);
  return out;
}

ExistentialConjunction ExistentialConjunction::Conjoin(
    const ExistentialConjunction& o) const {
  // exists y . A  and  exists z . B  ==  exists y,z . (A and B) provided
  // y is not free in B and z not free in A; freshening guarantees it.
  ExistentialConjunction a = *this;
  ExistentialConjunction b = o;
  // Freshen only when collisions are possible.
  VarSet a_all = a.AllVars();
  VarSet b_all = b.AllVars();
  bool collide = false;
  for (VarId v : a.bound_) {
    if (b_all.count(v)) collide = true;
  }
  for (VarId v : b.bound_) {
    if (a_all.count(v)) collide = true;
  }
  if (collide) {
    a = a.FreshenBound();
    b = b.FreshenBound();
  }
  ExistentialConjunction out;
  out.body_ = a.body_.Conjoin(b.body_);
  out.bound_ = a.bound_;
  for (VarId v : b.bound_) out.bound_.insert(v);
  return out;
}

ExistentialConjunction ExistentialConjunction::Project(
    const VarSet& keep) const {
  ExistentialConjunction out = *this;
  for (VarId v : FreeVars()) {
    if (!keep.count(v)) out.bound_.insert(v);
  }
  return out;
}

ExistentialConjunction ExistentialConjunction::RenameFree(
    const std::map<VarId, VarId>& renaming) const {
  ExistentialConjunction cur = *this;
  // Avoid capture: if a renaming target is a bound variable, freshen.
  for (const auto& [from, to] : renaming) {
    (void)from;
    if (cur.bound_.count(to)) {
      cur = cur.FreshenBound();
      break;
    }
  }
  // Restrict the renaming to free variables.
  std::map<VarId, VarId> free_renaming;
  VarSet free = cur.FreeVars();
  for (const auto& [from, to] : renaming) {
    if (free.count(from)) free_renaming[from] = to;
  }
  ExistentialConjunction out;
  out.body_ = cur.body_.Rename(free_renaming);
  out.bound_ = cur.bound_;
  return out;
}

ExistentialConjunction ExistentialConjunction::SubstituteFree(
    VarId var, const LinearExpr& replacement) const {
  ExistentialConjunction cur = *this;
  if (cur.bound_.count(var)) return cur;  // Not free; nothing to do.
  // Avoid capture of replacement variables by the quantifier.
  for (const auto& [v, coeff] : replacement.terms()) {
    (void)coeff;
    if (cur.bound_.count(v)) {
      cur = cur.FreshenBound();
      break;
    }
  }
  ExistentialConjunction out;
  out.body_ = cur.body_.Substitute(var, replacement);
  out.bound_ = cur.bound_;
  return out;
}

Result<bool> ExistentialConjunction::Satisfiable() const {
  return Simplex::IsSatisfiable(body_);
}

Result<bool> ExistentialConjunction::EvalFree(
    const Assignment& assignment) const {
  Conjunction grounded = body_;
  for (VarId v : FreeVars()) {
    auto it = assignment.find(v);
    if (it == assignment.end()) {
      return Status::InvalidArgument("EvalFree: unassigned free variable '" +
                                     Variable::Name(v) + "'");
    }
    grounded = grounded.Substitute(v, LinearExpr::Constant(it->second));
  }
  return Simplex::IsSatisfiable(grounded);
}

Result<Conjunction> ExistentialConjunction::ToConjunction() const {
  if (bound_.empty()) return body_;
  // Disequalities over bound variables force a disjunctive split; that is
  // a family boundary the caller must handle via DisjunctiveExistential.
  return FourierMotzkin::ProjectOnto(body_, FreeVars());
}

std::string ExistentialConjunction::ToString() const {
  if (bound_.empty()) return body_.ToString();
  std::string out = "exists ";
  bool first = true;
  for (VarId v : bound_) {
    if (!first) out += ", ";
    first = false;
    out += Variable::Name(v);
  }
  out += " . (" + body_.ToString() + ")";
  return out;
}

// ---------------------------------------------------------------------------
// DisjunctiveExistential
// ---------------------------------------------------------------------------

DisjunctiveExistential DisjunctiveExistential::FromDnf(const Dnf& d) {
  DisjunctiveExistential out;
  for (const Conjunction& c : d.disjuncts()) {
    out.AddDisjunct(ExistentialConjunction(c));
  }
  return out;
}

void DisjunctiveExistential::AddDisjunct(ExistentialConjunction ec) {
  if (ec.body().HasConstantFalse()) return;
  disjuncts_.push_back(std::move(ec));
}

DisjunctiveExistential DisjunctiveExistential::Or(
    const DisjunctiveExistential& o) const {
  DisjunctiveExistential out = *this;
  for (const ExistentialConjunction& ec : o.disjuncts_) {
    out.AddDisjunct(ec);
  }
  return out;
}

DisjunctiveExistential DisjunctiveExistential::And(
    const DisjunctiveExistential& o) const {
  DisjunctiveExistential out;
  // Charged and sampled like Dnf::And; a truncated result never escapes.
  uint64_t atoms = 0;
  for (const auto& a : disjuncts_) atoms += a.body().size() * o.size();
  for (const auto& b : o.disjuncts_) atoms += b.body().size() * size();
  if (exec::AccountKernelMemory(atoms * sizeof(LinearConstraint),
                                "existential.and")) {
    return out;
  }
  size_t built = 0;
  for (const ExistentialConjunction& a : disjuncts_) {
    for (const ExistentialConjunction& b : o.disjuncts_) {
      if ((++built & 1023) == 0 && exec::CheckDeadline("existential.and")) {
        return out;
      }
      out.AddDisjunct(a.Conjoin(b));
    }
  }
  return out;
}

DisjunctiveExistential DisjunctiveExistential::Project(
    const VarSet& keep) const {
  DisjunctiveExistential out;
  for (const ExistentialConjunction& ec : disjuncts_) {
    out.AddDisjunct(ec.Project(keep));
  }
  return out;
}

DisjunctiveExistential DisjunctiveExistential::RenameFree(
    const std::map<VarId, VarId>& renaming) const {
  DisjunctiveExistential out;
  for (const ExistentialConjunction& ec : disjuncts_) {
    out.AddDisjunct(ec.RenameFree(renaming));
  }
  return out;
}

DisjunctiveExistential DisjunctiveExistential::SubstituteFree(
    VarId var, const LinearExpr& replacement) const {
  DisjunctiveExistential out;
  for (const ExistentialConjunction& ec : disjuncts_) {
    out.AddDisjunct(ec.SubstituteFree(var, replacement));
  }
  return out;
}

VarSet DisjunctiveExistential::FreeVars() const {
  VarSet out;
  for (const ExistentialConjunction& ec : disjuncts_) {
    for (VarId v : ec.FreeVars()) out.insert(v);
  }
  return out;
}

Result<bool> DisjunctiveExistential::Satisfiable() const {
  for (const ExistentialConjunction& ec : disjuncts_) {
    LYRIC_ASSIGN_OR_RETURN(bool sat, ec.Satisfiable());
    if (sat) return true;
  }
  return false;
}

Result<std::optional<Assignment>> DisjunctiveExistential::FindPoint() const {
  for (const ExistentialConjunction& ec : disjuncts_) {
    LYRIC_ASSIGN_OR_RETURN(std::optional<Assignment> pt,
                           Simplex::FindPoint(ec.body()));
    if (pt.has_value()) {
      // Restrict to the free variables.
      Assignment out;
      for (VarId v : ec.FreeVars()) {
        auto it = pt->find(v);
        out[v] = it == pt->end() ? Rational(0) : it->second;
      }
      return std::optional<Assignment>(std::move(out));
    }
  }
  return std::optional<Assignment>();
}

Result<LpSolution> DisjunctiveExistential::Maximize(
    const LinearExpr& objective) const {
  // The supremum over a union is the max over disjuncts; a bound variable
  // is just an extra dimension of the disjunct's polyhedron.
  LpSolution best;
  best.status = LpStatus::kInfeasible;
  for (const ExistentialConjunction& ec : disjuncts_) {
    const ExistentialConjunction fresh = ec.FreshenBound();
    LYRIC_ASSIGN_OR_RETURN(LpSolution sol,
                           Simplex::Maximize(objective, fresh.body()));
    if (sol.status == LpStatus::kInfeasible) continue;
    if (sol.status == LpStatus::kUnbounded) return sol;
    if (best.status != LpStatus::kOptimal || sol.value > best.value ||
        (sol.value == best.value && sol.attained && !best.attained)) {
      best = std::move(sol);
    }
  }
  return best;
}

Result<bool> DisjunctiveExistential::EvalFree(
    const Assignment& assignment) const {
  for (const ExistentialConjunction& ec : disjuncts_) {
    LYRIC_ASSIGN_OR_RETURN(bool holds, ec.EvalFree(assignment));
    if (holds) return true;
  }
  return false;
}

Result<Dnf> DisjunctiveExistential::ToDnf() const {
  Dnf out;
  for (const ExistentialConjunction& ec : disjuncts_) {
    if (ec.bound().empty()) {
      out.AddDisjunct(ec.body());
      continue;
    }
    // Disequalities over bound variables: split first, then eliminate.
    bool diseq_on_bound = false;
    for (const LinearConstraint& atom : ec.body().atoms()) {
      if (!atom.IsDisequality()) continue;
      for (const auto& [v, coeff] : atom.lhs().terms()) {
        (void)coeff;
        if (ec.bound().count(v)) diseq_on_bound = true;
      }
    }
    if (diseq_on_bound) {
      Dnf split = Dnf(ec.body()).SplitDisequalities();
      LYRIC_ASSIGN_OR_RETURN(Dnf projected,
                             split.ProjectOnto(ec.FreeVars()));
      out = out.Or(projected);
    } else {
      LYRIC_ASSIGN_OR_RETURN(Conjunction projected, ec.ToConjunction());
      out.AddDisjunct(std::move(projected));
    }
  }
  return out;
}

Result<bool> DisjunctiveExistential::Entails(
    const DisjunctiveExistential& o) const {
  // Right side: quantifier-free DNF (eliminates on demand).
  LYRIC_ASSIGN_OR_RETURN(Dnf rhs, o.ToDnf());
  // Left side: (exists y . C) |= psi  iff  C |= psi when y does not occur
  // in psi; freshening the bound variables guarantees that.
  for (const ExistentialConjunction& ec : disjuncts_) {
    ExistentialConjunction fresh = ec.FreshenBound();
    LYRIC_ASSIGN_OR_RETURN(bool ok,
                           Entailment::ConjunctionEntails(fresh.body(), rhs));
    if (!ok) return false;
  }
  return true;
}

std::string DisjunctiveExistential::ToString() const {
  if (disjuncts_.empty()) return "false";
  if (disjuncts_.size() == 1) return disjuncts_[0].ToString();
  std::string out;
  for (size_t i = 0; i < disjuncts_.size(); ++i) {
    if (i > 0) out += " or ";
    out += "(" + disjuncts_[i].ToString() + ")";
  }
  return out;
}

}  // namespace lyric
