#include "query/formula_builder.h"

#include "exec/governor.h"
#include "query/path_walker.h"

namespace lyric {

Result<LinearExpr> FormulaBuilder::BuildArith(const ast::ArithExpr& expr,
                                              const Binding& binding) const {
  using Kind = ast::ArithExpr::Kind;
  switch (expr.kind) {
    case Kind::kConst:
      return LinearExpr::Constant(expr.constant);
    case Kind::kName: {
      // A bound query variable denotes its (numeric) oid; any other name
      // is a constraint variable.
      auto it = binding.vars.find(expr.name);
      if (declared_->count(expr.name) && it != binding.vars.end()) {
        if (!it->second.IsNumeric()) {
          return Status::TypeError(
              "query variable '" + expr.name +
              "' used in an arithmetic expression is bound to " +
              it->second.ToString() + ", not a number");
        }
        return LinearExpr::Constant(it->second.AsNumeric());
      }
      if (declared_->count(expr.name)) {
        return Status::InvalidArgument(
            "query variable '" + expr.name +
            "' is unbound inside an arithmetic expression");
      }
      return LinearExpr::Var(Variable::Intern(expr.name));
    }
    case Kind::kPath: {
      LYRIC_ASSIGN_OR_RETURN(
          std::vector<PathResult> results,
          WalkPath(*expr.path, binding, *db_, *declared_));
      if (results.empty()) {
        return Status::NotFound("path " + expr.path->ToString() +
                                " has no value under the current binding");
      }
      const Oid& tail = results[0].tail;
      for (const PathResult& r : results) {
        if (r.tail != tail) {
          return Status::TypeError("path " + expr.path->ToString() +
                                   " is not single-valued in an arithmetic "
                                   "expression");
        }
      }
      if (!tail.IsNumeric()) {
        return Status::TypeError("path " + expr.path->ToString() +
                                 " denotes " + tail.ToString() +
                                 ", not a number");
      }
      return LinearExpr::Constant(tail.AsNumeric());
    }
    case Kind::kNeg: {
      LYRIC_ASSIGN_OR_RETURN(LinearExpr e, BuildArith(*expr.lhs, binding));
      return -e;
    }
    case Kind::kAdd:
    case Kind::kSub: {
      LYRIC_ASSIGN_OR_RETURN(LinearExpr a, BuildArith(*expr.lhs, binding));
      LYRIC_ASSIGN_OR_RETURN(LinearExpr b, BuildArith(*expr.rhs, binding));
      return expr.kind == Kind::kAdd ? a + b : a - b;
    }
    case Kind::kMul: {
      LYRIC_ASSIGN_OR_RETURN(LinearExpr a, BuildArith(*expr.lhs, binding));
      LYRIC_ASSIGN_OR_RETURN(LinearExpr b, BuildArith(*expr.rhs, binding));
      // Pseudo-linearity (§4.2): one factor must be constant.
      if (a.IsConstant()) return b.Scale(a.constant());
      if (b.IsConstant()) return a.Scale(b.constant());
      return Status::TypeError(
          "non-linear product in formula: (" + expr.lhs->ToString() +
          ") * (" + expr.rhs->ToString() + ")");
    }
    case Kind::kDiv: {
      LYRIC_ASSIGN_OR_RETURN(LinearExpr a, BuildArith(*expr.lhs, binding));
      LYRIC_ASSIGN_OR_RETURN(LinearExpr b, BuildArith(*expr.rhs, binding));
      if (!b.IsConstant()) {
        return Status::TypeError("division by a non-constant in formula: " +
                                 expr.rhs->ToString());
      }
      if (b.constant().IsZero()) {
        return Status::ArithmeticError("division by zero in formula");
      }
      return a.Scale(b.constant().Inverse());
    }
  }
  return Status::Internal("bad arith node");
}

Result<DisjunctiveExistential> FormulaBuilder::BuildPred(
    const ast::Formula& formula, const Binding& binding,
    IdentityUses* ids) const {
  // Resolve the predicate to a CST oid plus dimension info.
  Oid cst_oid;
  std::vector<DimInfo> dims;
  const ast::PathExpr& pred = *formula.pred;
  bool resolved = false;
  if (pred.steps.empty() &&
      pred.head.kind == ast::NameOrLiteral::Kind::kName &&
      declared_->count(pred.head.name)) {
    auto it = binding.vars.find(pred.head.name);
    if (it == binding.vars.end()) {
      return Status::InvalidArgument("CST variable '" + pred.head.name +
                                     "' is unbound in formula");
    }
    cst_oid = it->second;
    auto dit = binding.cst_dims.find(pred.head.name);
    if (dit != binding.cst_dims.end()) dims = dit->second;
    resolved = true;
  }
  if (!resolved) {
    LYRIC_ASSIGN_OR_RETURN(std::vector<PathResult> results,
                           WalkPath(pred, binding, *db_, *declared_));
    if (results.empty()) {
      return Status::NotFound("CST predicate path " + pred.ToString() +
                              " has no value under the current binding");
    }
    cst_oid = results[0].tail;
    dims = results[0].tail_dims;
    for (const PathResult& r : results) {
      if (r.tail != cst_oid) {
        return Status::TypeError(
            "CST predicate path " + pred.ToString() +
            " is set-valued; select one value with a bracket variable");
      }
    }
  }
  if (!cst_oid.IsCst()) {
    return Status::TypeError("predicate " + pred.ToString() +
                             " denotes " + cst_oid.ToString() +
                             ", which is not a CST object");
  }
  LYRIC_ASSIGN_OR_RETURN(CstObject obj, db_->GetCst(cst_oid));

  // Determine the dimension variable names.
  std::vector<std::string> names;
  if (formula.pred_args.has_value()) {
    if (formula.pred_args->size() != obj.Dimension()) {
      return Status::TypeError(
          "predicate " + pred.ToString() + " has dimension " +
          std::to_string(obj.Dimension()) + " but was invoked with " +
          std::to_string(formula.pred_args->size()) + " variables");
    }
    names = *formula.pred_args;
  } else {
    if (dims.size() != obj.Dimension()) {
      return Status::TypeError(
          "bare predicate use " + pred.ToString() +
          " has no schema variable names; invoke it with explicit "
          "variables O(x1, ..., xn)");
    }
    for (const DimInfo& d : dims) names.push_back(d.display);
  }
  // Record identity uses for the implicit equalities.
  for (size_t i = 0; i < dims.size() && i < names.size(); ++i) {
    ids->uses[dims[i].identity].insert(names[i]);
  }
  std::vector<VarId> target;
  target.reserve(names.size());
  for (const std::string& n : names) target.push_back(Variable::Intern(n));
  // Duplicate names in an invocation (e.g. O(x, x)) mean equality of the
  // two dimensions: rename through fresh variables, equate, and project
  // the fresh helpers away so they are bound, not free.
  {
    std::set<VarId> seen;
    std::vector<std::pair<VarId, VarId>> dup_eq;
    for (VarId& v : target) {
      if (!seen.insert(v).second) {
        VarId fresh = Variable::Fresh(Variable::Name(v));
        dup_eq.emplace_back(v, fresh);
        v = fresh;
      }
    }
    LYRIC_ASSIGN_OR_RETURN(CstObject renamed, obj.RenameTo(target));
    DisjunctiveExistential body = renamed.Body();
    if (!dup_eq.empty()) {
      Conjunction eqs;
      for (const auto& [orig, fresh] : dup_eq) {
        eqs.Add(LinearConstraint::Eq(LinearExpr::Var(orig),
                                     LinearExpr::Var(fresh)));
      }
      body = body.And(DisjunctiveExistential::FromConjunction(eqs));
      VarSet keep = body.FreeVars();
      for (const auto& [orig, fresh] : dup_eq) keep.erase(fresh);
      body = body.Project(keep);
    }
    return body;
  }
}

Result<DisjunctiveExistential> FormulaBuilder::BuildNode(
    const ast::Formula& formula, const Binding& binding,
    IdentityUses* ids) const {
  using Kind = ast::Formula::Kind;
  switch (formula.kind) {
    case Kind::kTrue:
      return DisjunctiveExistential::True();
    case Kind::kFalse:
      return DisjunctiveExistential::False();
    case Kind::kAtom: {
      LYRIC_ASSIGN_OR_RETURN(LinearExpr lhs,
                             BuildArith(*formula.atom_lhs, binding));
      LYRIC_ASSIGN_OR_RETURN(LinearExpr rhs,
                             BuildArith(*formula.atom_rhs, binding));
      LinearConstraint atom = [&] {
        if (formula.relop == "=") return LinearConstraint::Eq(lhs, rhs);
        if (formula.relop == "!=") return LinearConstraint::Neq(lhs, rhs);
        if (formula.relop == "<=") return LinearConstraint::Le(lhs, rhs);
        if (formula.relop == "<") return LinearConstraint::Lt(lhs, rhs);
        if (formula.relop == ">=") return LinearConstraint::Ge(lhs, rhs);
        return LinearConstraint::Gt(lhs, rhs);
      }();
      Conjunction c;
      c.Add(atom);
      return DisjunctiveExistential::FromConjunction(std::move(c));
    }
    case Kind::kAnd: {
      DisjunctiveExistential out = DisjunctiveExistential::True();
      for (const auto& child : formula.children) {
        LYRIC_ASSIGN_OR_RETURN(DisjunctiveExistential c,
                               BuildNode(*child, binding, ids));
        out = out.And(c);
      }
      return out;
    }
    case Kind::kOr: {
      DisjunctiveExistential out = DisjunctiveExistential::False();
      for (const auto& child : formula.children) {
        LYRIC_ASSIGN_OR_RETURN(DisjunctiveExistential c,
                               BuildNode(*child, binding, ids));
        out = out.Or(c);
      }
      return out;
    }
    case Kind::kNot: {
      LYRIC_ASSIGN_OR_RETURN(DisjunctiveExistential operand,
                             BuildNode(*formula.children[0], binding, ids));
      // §3.1 negates conjunctive constraints only.
      if (operand.IsFalse()) return DisjunctiveExistential::True();
      if (operand.size() != 1 || !operand.disjuncts()[0].bound().empty()) {
        return Status::TypeError(
            "NOT applies to conjunctive constraints only (operand is " +
            operand.ToString() + ")");
      }
      Dnf negated = Dnf::NegateConjunction(operand.disjuncts()[0].body());
      return DisjunctiveExistential::FromDnf(negated);
    }
    case Kind::kPred:
      return BuildPred(formula, binding, ids);
    case Kind::kProject: {
      IdentityUses inner;
      LYRIC_ASSIGN_OR_RETURN(DisjunctiveExistential body,
                             BuildNode(*formula.children[0], binding,
                                       &inner));
      body = ApplyIdentityEqualities(std::move(body), inner);
      VarSet keep;
      for (const std::string& v : formula.proj_vars) {
        keep.insert(Variable::Intern(v));
      }
      return body.Project(keep);
    }
    case Kind::kExists: {
      IdentityUses inner;
      LYRIC_ASSIGN_OR_RETURN(DisjunctiveExistential body,
                             BuildNode(*formula.children[0], binding,
                                       &inner));
      body = ApplyIdentityEqualities(std::move(body), inner);
      // Keep everything except the listed variables.
      VarSet bound;
      for (const std::string& v : formula.proj_vars) {
        bound.insert(Variable::Intern(v));
      }
      VarSet keep;
      for (VarId v : body.FreeVars()) {
        if (!bound.count(v)) keep.insert(v);
      }
      return body.Project(keep);
    }
  }
  return Status::Internal("bad formula node");
}

DisjunctiveExistential FormulaBuilder::ApplyIdentityEqualities(
    DisjunctiveExistential de, const IdentityUses& ids) {
  Conjunction eqs;
  for (const auto& [identity, names] : ids.uses) {
    (void)identity;
    if (names.size() < 2) continue;
    auto it = names.begin();
    VarId first = Variable::Intern(*it);
    for (++it; it != names.end(); ++it) {
      eqs.Add(LinearConstraint::Eq(LinearExpr::Var(first),
                                   LinearExpr::Var(Variable::Intern(*it))));
    }
  }
  if (eqs.IsTrue()) return de;
  return de.And(DisjunctiveExistential::FromConjunction(eqs));
}

Result<DisjunctiveExistential> FormulaBuilder::Build(
    const ast::Formula& formula, const Binding& binding) const {
  IdentityUses ids;
  LYRIC_ASSIGN_OR_RETURN(DisjunctiveExistential out,
                         BuildNode(formula, binding, &ids));
  out = ApplyIdentityEqualities(std::move(out), ids);
  // Building a formula DNF-expands ANDs of ORs (the non-Result Dnf::And
  // product); a governed build that tripped max_disjuncts truncated that
  // expansion, so surface the trip before the formula escapes.
  LYRIC_RETURN_NOT_OK(exec::CheckCancellation("formula_builder.build"));
  return out;
}

Result<CstObject> FormulaBuilder::BuildProjectionObject(
    const ast::Formula& formula, const Binding& binding, bool eager) const {
  if (formula.kind != ast::Formula::Kind::kProject) {
    return Status::TypeError(
        "a SELECT constraint item must be a projection ((x1,..,xn) | phi)");
  }
  IdentityUses ids;
  LYRIC_ASSIGN_OR_RETURN(DisjunctiveExistential body,
                         BuildNode(*formula.children[0], binding, &ids));
  body = ApplyIdentityEqualities(std::move(body), ids);
  LYRIC_RETURN_NOT_OK(exec::CheckCancellation("formula_builder.projection"));
  std::vector<VarId> interface_vars;
  for (const std::string& v : formula.proj_vars) {
    interface_vars.push_back(Variable::Intern(v));
  }
  VarSet keep(interface_vars.begin(), interface_vars.end());
  if (eager) {
    // Materialize the projection the way the paper prints its results.
    DisjunctiveExistential projected = body.Project(keep);
    LYRIC_ASSIGN_OR_RETURN(Dnf dnf, projected.ToDnf());
    LYRIC_ASSIGN_OR_RETURN(Dnf simplified,
                           Canonical::Simplify(dnf, CanonicalLevel::kCheap));
    return CstObject::FromDnf(interface_vars, simplified);
  }
  return CstObject::Make(interface_vars, body.Project(keep));
}

}  // namespace lyric
