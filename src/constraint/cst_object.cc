#include "constraint/cst_object.h"

#include <algorithm>

#include "exec/governor.h"
#include "util/string_util.h"

namespace lyric {

namespace {

Status CheckInterface(const std::vector<VarId>& interface_vars) {
  VarSet seen;
  for (VarId v : interface_vars) {
    if (!seen.insert(v).second) {
      return Status::InvalidArgument("repeated interface variable '" +
                                     Variable::Name(v) + "'");
    }
  }
  return Status::OK();
}

}  // namespace

CstObject::CstObject()
    : body_(DisjunctiveExistential::True()),
      family_(ConstraintFamily::kConjunctive) {}

Status CstObject::CheckBodyVars() const {
  VarSet allowed(interface_.begin(), interface_.end());
  for (VarId v : body_.FreeVars()) {
    if (!allowed.count(v)) {
      return Status::InvalidArgument(
          "constraint body mentions variable '" + Variable::Name(v) +
          "' outside the interface " +
          VarSetToString(VarSet(interface_.begin(), interface_.end())));
    }
  }
  return Status::OK();
}

ConstraintFamily CstObject::InferFamily(const DisjunctiveExistential& body) {
  bool has_exists = false;
  for (const ExistentialConjunction& ec : body.disjuncts()) {
    if (!ec.bound().empty()) has_exists = true;
  }
  bool has_disj = body.size() > 1;
  if (has_exists && has_disj) {
    return ConstraintFamily::kDisjunctiveExistential;
  }
  if (has_exists) return ConstraintFamily::kExistentialConjunctive;
  if (has_disj) return ConstraintFamily::kDisjunctive;
  return ConstraintFamily::kConjunctive;
}

Result<CstObject> CstObject::FromConjunction(
    std::vector<VarId> interface_vars, Conjunction body) {
  return Make(std::move(interface_vars),
              DisjunctiveExistential::FromConjunction(std::move(body)));
}

Result<CstObject> CstObject::FromDnf(std::vector<VarId> interface_vars,
                                     Dnf body) {
  return Make(std::move(interface_vars),
              DisjunctiveExistential::FromDnf(body));
}

Result<CstObject> CstObject::Make(std::vector<VarId> interface_vars,
                                  DisjunctiveExistential body) {
  LYRIC_RETURN_NOT_OK(CheckInterface(interface_vars));
  CstObject out;
  out.interface_ = std::move(interface_vars);
  out.body_ = std::move(body);
  out.family_ = InferFamily(out.body_);
  LYRIC_RETURN_NOT_OK(out.CheckBodyVars());
  return out;
}

Result<CstObject> CstObject::RenameTo(
    const std::vector<VarId>& new_interface) const {
  if (new_interface.size() != interface_.size()) {
    return Status::InvalidArgument(
        "interface arity mismatch: have " +
        std::to_string(interface_.size()) + " dimensions, renaming to " +
        std::to_string(new_interface.size()));
  }
  LYRIC_RETURN_NOT_OK(CheckInterface(new_interface));
  std::map<VarId, VarId> renaming;
  for (size_t i = 0; i < interface_.size(); ++i) {
    if (interface_[i] != new_interface[i]) {
      renaming[interface_[i]] = new_interface[i];
    }
  }
  CstObject out;
  out.interface_ = new_interface;
  out.body_ = body_.RenameFree(renaming);
  out.family_ = family_;
  return out;
}

Result<CstObject> CstObject::Conjoin(const CstObject& o) const {
  CstObject out;
  out.interface_ = interface_;
  VarSet have(interface_.begin(), interface_.end());
  for (VarId v : o.interface_) {
    if (have.insert(v).second) out.interface_.push_back(v);
  }
  out.body_ = body_.And(o.body_);
  // A governed product that tripped stopped short; report the trip.
  LYRIC_RETURN_NOT_OK(exec::CheckCancellation("cst_object.conjoin"));
  out.family_ = FamilyJoin(family_, o.family_);
  // Conjunction of two disjunctive objects multiplies disjuncts but stays
  // disjunctive; of mixed existential forms joins at the top. Re-infer to
  // keep the tag structural when the product collapsed.
  out.family_ = FamilyJoin(out.family_, InferFamily(out.body_));
  return out;
}

Result<CstObject> CstObject::Disjoin(const CstObject& o) const {
  CstObject out;
  out.interface_ = interface_;
  VarSet have(interface_.begin(), interface_.end());
  for (VarId v : o.interface_) {
    if (have.insert(v).second) out.interface_.push_back(v);
  }
  out.body_ = body_.Or(o.body_);
  ConstraintFamily disj =
      FamilyHasExistentials(FamilyJoin(family_, o.family_))
          ? ConstraintFamily::kDisjunctiveExistential
          : ConstraintFamily::kDisjunctive;
  out.family_ = FamilyJoin(disj, InferFamily(out.body_));
  return out;
}

Result<CstObject> CstObject::Negate() const {
  if (family_ != ConstraintFamily::kConjunctive) {
    return Status::InvalidArgument(
        "negation is only defined for conjunctive CST objects (got " +
        std::string(ConstraintFamilyToString(family_)) + ")");
  }
  Dnf negated;
  if (body_.IsFalse()) {
    negated = Dnf::True();
  } else {
    negated = Dnf::NegateConjunction(body_.disjuncts()[0].body());
  }
  return FromDnf(interface_, std::move(negated));
}

Result<CstObject> CstObject::Project(
    const std::vector<VarId>& new_interface) const {
  LYRIC_RETURN_NOT_OK(CheckInterface(new_interface));
  VarSet keep(new_interface.begin(), new_interface.end());
  // Variables being dropped.
  std::vector<VarId> dropped;
  for (VarId v : interface_) {
    if (!keep.count(v)) dropped.push_back(v);
  }
  // Kept *old* dimensions (for the restricted-projection test).
  size_t kept_old = interface_.size() - dropped.size();

  CstObject out;
  out.interface_ = new_interface;
  if (!FamilyHasExistentials(family_) &&
      (dropped.size() <= 1 || kept_old <= 1)) {
    // Restricted projection: eager, stays in the family (§3.1).
    LYRIC_ASSIGN_OR_RETURN(Dnf dnf, body_.ToDnf());  // No quantifiers here.
    if (dropped.size() == 1 && kept_old > 1) {
      LYRIC_ASSIGN_OR_RETURN(dnf, dnf.EliminateVariable(dropped[0]));
    } else if (kept_old <= 1) {
      std::optional<VarId> keep_var;
      for (VarId v : interface_) {
        if (keep.count(v)) keep_var = v;
      }
      LYRIC_ASSIGN_OR_RETURN(dnf, dnf.ProjectOntoAtMostOne(keep_var));
    }
    out.body_ = DisjunctiveExistential::FromDnf(dnf);
    out.family_ = family_;
    out.family_ = FamilyJoin(out.family_, InferFamily(out.body_));
    return out;
  }
  // Unrestricted (or already existential): absorb into the quantifier.
  out.body_ = body_.Project(keep);
  out.family_ = FamilyHasDisjunction(family_) || out.body_.size() > 1
                    ? ConstraintFamily::kDisjunctiveExistential
                    : ConstraintFamily::kExistentialConjunctive;
  return out;
}

Result<CstObject> CstObject::ProjectEager(
    const std::vector<VarId>& new_interface) const {
  LYRIC_RETURN_NOT_OK(CheckInterface(new_interface));
  VarSet keep(new_interface.begin(), new_interface.end());
  LYRIC_ASSIGN_OR_RETURN(Dnf dnf, body_.ToDnf());
  LYRIC_ASSIGN_OR_RETURN(Dnf projected, dnf.ProjectOnto(keep));
  return FromDnf(new_interface, std::move(projected));
}

Result<bool> CstObject::Contains(const std::vector<Rational>& point) const {
  if (point.size() != interface_.size()) {
    return Status::InvalidArgument("point dimension " +
                                   std::to_string(point.size()) +
                                   " != object dimension " +
                                   std::to_string(interface_.size()));
  }
  Assignment a;
  for (size_t i = 0; i < point.size(); ++i) a[interface_[i]] = point[i];
  return body_.EvalFree(a);
}

Result<bool> CstObject::Entails(const CstObject& o) const {
  if (o.Dimension() != Dimension()) {
    return Status::InvalidArgument(
        "entailment between CST objects of different dimension (" +
        std::to_string(Dimension()) + " vs " + std::to_string(o.Dimension()) +
        ")");
  }
  LYRIC_ASSIGN_OR_RETURN(CstObject aligned, o.RenameTo(interface_));
  return body_.Entails(aligned.body_);
}

Result<bool> CstObject::EquivalentTo(const CstObject& o) const {
  LYRIC_ASSIGN_OR_RETURN(bool ab, Entails(o));
  if (!ab) return false;
  return o.Entails(*this);
}

Result<LpSolution> CstObject::Maximize(const LinearExpr& objective) const {
  LYRIC_ASSIGN_OR_RETURN(LpSolution best, body_.Maximize(objective));
  if (best.status == LpStatus::kOptimal) {
    // Restrict the witness to interface variables.
    Assignment pt;
    for (VarId v : interface_) {
      auto it = best.point.find(v);
      pt[v] = it == best.point.end() ? Rational(0) : it->second;
    }
    best.point = std::move(pt);
  }
  return best;
}

Result<LpSolution> CstObject::Minimize(const LinearExpr& objective) const {
  LYRIC_ASSIGN_OR_RETURN(LpSolution neg, Maximize(-objective));
  neg.value = -neg.value;
  return neg;
}

Result<std::vector<CstObject::Interval>> CstObject::BoundingBox() const {
  LYRIC_ASSIGN_OR_RETURN(bool sat, Satisfiable());
  if (!sat) {
    return Status::InvalidArgument("BoundingBox of an empty CST object");
  }
  std::vector<Interval> out;
  out.reserve(interface_.size());
  for (VarId v : interface_) {
    Interval iv;
    LinearExpr obj = LinearExpr::Var(v);
    LYRIC_ASSIGN_OR_RETURN(LpSolution mx, Maximize(obj));
    if (mx.status == LpStatus::kOptimal) {
      iv.upper = mx.value;
      iv.upper_closed = mx.attained;
    }
    LYRIC_ASSIGN_OR_RETURN(LpSolution mn, Minimize(obj));
    if (mn.status == LpStatus::kOptimal) {
      iv.lower = mn.value;
      iv.lower_closed = mn.attained;
    }
    out.push_back(std::move(iv));
  }
  return out;
}

Result<CstObject> CstObject::Canonicalize(CanonicalLevel level) const {
  DisjunctiveExistential out_body;
  for (const ExistentialConjunction& ec : body_.disjuncts()) {
    LYRIC_ASSIGN_OR_RETURN(Conjunction simplified,
                           Canonical::Simplify(ec.body(), level));
    if (level >= CanonicalLevel::kCheap && simplified.HasConstantFalse()) {
      continue;  // Inconsistent-disjunct deletion.
    }
    out_body.AddDisjunct(ExistentialConjunction(simplified, ec.bound()));
  }
  CstObject out;
  out.interface_ = interface_;
  out.body_ = std::move(out_body);
  out.family_ = family_;
  return out;
}

Result<std::string> CstObject::CanonicalString() const {
  LYRIC_ASSIGN_OR_RETURN(CstObject canon, Canonicalize(CanonicalLevel::kCheap));
  // Positional interface renaming: dimension i becomes "@i". Every call
  // interns "@0" to "@(n-1)" in order, so "@i" gets a larger id than
  // "@(i-1)" whichever thread interns it first.
  std::vector<VarId> target;
  target.reserve(interface_.size());
  for (size_t i = 0; i < interface_.size(); ++i) {
    target.push_back(Variable::Intern("@" + std::to_string(i)));
  }
  LYRIC_ASSIGN_OR_RETURN(CstObject renamed, canon.RenameTo(target));
  // Render each disjunct with bound variables renamed by first occurrence.
  std::vector<std::string> parts;
  for (const ExistentialConjunction& ec : renamed.body_.disjuncts()) {
    Conjunction body = ec.body();
    std::map<VarId, VarId> bound_renaming;
    size_t counter = 0;
    for (const LinearConstraint& atom : body.atoms()) {
      for (const auto& [v, coeff] : atom.lhs().terms()) {
        (void)coeff;
        if (ec.bound().count(v) && !bound_renaming.count(v)) {
          bound_renaming[v] =
              Variable::Intern("@b" + std::to_string(counter++));
        }
      }
    }
    body = body.Rename(bound_renaming);
    body.SortAndDedupe();
    VarSet new_bound;
    for (const auto& [from, to] : bound_renaming) {
      (void)from;
      new_bound.insert(to);
    }
    parts.push_back(ExistentialConjunction(body, new_bound).ToString());
  }
  std::sort(parts.begin(), parts.end());
  parts.erase(std::unique(parts.begin(), parts.end()), parts.end());
  // Interface header.
  std::vector<std::string> dims;
  for (VarId v : target) dims.push_back(Variable::Name(v));
  std::string body_text = parts.empty() ? "false" : Join(parts, " or ");
  return "((" + Join(dims, ", ") + ") | " + body_text + ")";
}

std::string CstObject::ToString() const {
  std::vector<std::string> dims;
  for (VarId v : interface_) dims.push_back(Variable::Name(v));
  return "((" + Join(dims, ", ") + ") | " + body_.ToString() + ")";
}

}  // namespace lyric
