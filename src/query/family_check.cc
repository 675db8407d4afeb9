#include "query/family_check.h"

#include <algorithm>
#include <functional>

namespace lyric {

namespace {

size_t SatMul(size_t a, size_t b) {
  if (a == 0 || b == 0) return 0;
  if (a > kDisjunctEstimateCap / b) return kDisjunctEstimateCap;
  return std::min(a * b, kDisjunctEstimateCap);
}

size_t SatAdd(size_t a, size_t b) {
  return std::min(a + b, kDisjunctEstimateCap);
}

// Number of atomic constraints in a formula — the disjunct estimate for
// the negation of a conjunctive body (~(a1 and .. and ak) has k
// disjuncts).
size_t CountAtoms(const ast::Formula& f) {
  using Kind = ast::Formula::Kind;
  switch (f.kind) {
    case Kind::kAtom:
    case Kind::kPred:
      return 1;
    case Kind::kTrue:
    case Kind::kFalse:
      return 0;
    default: {
      size_t total = 0;
      for (const auto& child : f.children) {
        total = SatAdd(total, CountAtoms(*child));
      }
      return total;
    }
  }
}

// Truncates a formula rendering for diagnostic messages.
std::string Excerpt(const ast::Formula& f) {
  std::string text = f.ToString();
  constexpr size_t kMax = 48;
  if (text.size() > kMax) {
    text.resize(kMax - 3);
    text += "...";
  }
  return text;
}

// The existential escalation of a family: conjunctive bodies project
// into existential-conjunctive ones, anything disjunctive into
// disjunctive-existential.
ConstraintFamily Existentialize(ConstraintFamily f) {
  return FamilyHasDisjunction(f) ? ConstraintFamily::kDisjunctiveExistential
                                 : ConstraintFamily::kExistentialConjunctive;
}

}  // namespace

void FamilyChecker::PredInterfaceVars(const ast::Formula& pred,
                                      std::set<std::string>* out) const {
  if (pred.pred_args.has_value()) {
    out->insert(pred.pred_args->begin(), pred.pred_args->end());
    return;
  }
  const ast::PathExpr& path = *pred.pred;
  if (path.head.kind != ast::NameOrLiteral::Kind::kName) return;
  if (path.steps.empty()) {
    // A bare variable: use the dimension names recorded when its bracket
    // selector bound it to a CST attribute.
    auto it = var_dims_->find(path.head.name);
    if (it != var_dims_->end()) {
      out->insert(it->second.begin(), it->second.end());
    }
    return;
  }
  // A path: walk the schema from the head's class to the final attribute;
  // a CST attribute's schema variables are the interface.
  std::string cur_class;
  if (declared_->count(path.head.name)) return;  // Class tracked elsewhere.
  Oid sym = Oid::Symbol(path.head.name);
  if (!db_->HasObject(sym)) return;
  Result<std::string> cls = db_->ClassOf(sym);
  if (!cls.ok()) return;
  cur_class = *cls;
  for (size_t i = 0; i < path.steps.size(); ++i) {
    Result<const AttributeDef*> attr =
        db_->schema().FindAttribute(cur_class, path.steps[i].attribute);
    if (!attr.ok()) return;
    if ((*attr)->IsCst()) {
      if (i + 1 == path.steps.size()) {
        out->insert((*attr)->variables.begin(), (*attr)->variables.end());
      }
      return;
    }
    cur_class = (*attr)->target_class;
  }
}

std::set<std::string> FamilyChecker::FreeConstraintVars(
    const ast::Formula& formula) const {
  using Kind = ast::Formula::Kind;
  std::set<std::string> out;
  switch (formula.kind) {
    case Kind::kTrue:
    case Kind::kFalse:
      break;
    case Kind::kAtom: {
      // Constraint variables are the names an atom mentions that are not
      // query variables (those stand for bound constants).
      std::function<void(const ast::ArithExpr&)> walk =
          [&](const ast::ArithExpr& e) {
            using AK = ast::ArithExpr::Kind;
            switch (e.kind) {
              case AK::kName:
                if (!declared_->count(e.name)) out.insert(e.name);
                break;
              case AK::kNeg:
              case AK::kSum:
              case AK::kProduct:
                for (const ast::ArithExpr& operand : e.operands) walk(operand);
                break;
              default:
                break;
            }
          };
      walk(*formula.atom_lhs);
      walk(*formula.atom_rhs);
      break;
    }
    case Kind::kPred:
      PredInterfaceVars(formula, &out);
      break;
    case Kind::kAnd:
    case Kind::kOr:
    case Kind::kNot:
      for (const auto& child : formula.children) {
        std::set<std::string> sub = FreeConstraintVars(*child);
        out.insert(sub.begin(), sub.end());
      }
      break;
    case Kind::kProject: {
      // ((v1,..,vn) | phi) exposes exactly the projection variables.
      out.insert(formula.proj_vars.begin(), formula.proj_vars.end());
      break;
    }
    case Kind::kExists: {
      out = FreeConstraintVars(*formula.children[0]);
      for (const std::string& v : formula.proj_vars) out.erase(v);
      break;
    }
  }
  return out;
}

bool FamilyChecker::ResolvePredFamily(const ast::PathExpr& pred,
                                      FamilyEstimate* out) const {
  // Only statically stored objects resolve: a symbolic-oid head followed
  // by scalar attribute steps ending at a CST value.
  if (pred.head.kind != ast::NameOrLiteral::Kind::kName) return false;
  if (declared_->count(pred.head.name)) return false;
  Oid cur = Oid::Symbol(pred.head.name);
  if (!db_->HasObject(cur)) return false;
  for (const ast::PathExpr::Step& step : pred.steps) {
    Result<Value> value = db_->GetAttribute(cur, step.attribute);
    if (!value.ok() || !value->is_scalar()) return false;
    cur = value->scalar();
  }
  Result<CstObject> cst = db_->GetCst(cur);
  if (!cst.ok()) return false;
  out->family = cst->Family();
  out->disjuncts = std::max<size_t>(cst->Body().size(), 1);
  out->assumed_preds = false;
  return true;
}

FamilyEstimate FamilyChecker::Infer(const ast::Formula& formula,
                                    std::vector<Diagnostic>* diags) const {
  using Kind = ast::Formula::Kind;
  FamilyEstimate est;
  switch (formula.kind) {
    case Kind::kTrue:
    case Kind::kFalse:
      return est;
    case Kind::kAtom:
      if (formula.relop == "!=") {
        // x != c is (x < c or x > c): inherently disjunctive.
        est.family = ConstraintFamily::kDisjunctive;
        est.disjuncts = 2;
      }
      return est;
    case Kind::kPred: {
      if (!ResolvePredFamily(*formula.pred, &est)) {
        est.assumed_preds = true;  // Canonical storage family.
      }
      return est;
    }
    case Kind::kAnd: {
      est.disjuncts = 1;
      for (const auto& child : formula.children) {
        FamilyEstimate c = Infer(*child, diags);
        est.family = FamilyJoin(est.family, c.family);
        est.disjuncts = SatMul(est.disjuncts, c.disjuncts);
        est.assumed_preds = est.assumed_preds || c.assumed_preds;
      }
      if (est.disjuncts >= kDnfBlowupThreshold) {
        diags->push_back(MakeDiag(
            DiagCode::kDnfBlowup, {formula.offset, 1},
            "conjunction distributes into an estimated " +
                std::to_string(est.disjuncts) +
                " DNF disjuncts (threshold " +
                std::to_string(kDnfBlowupThreshold) +
                "); §3 keeps operations polynomial per disjunct, but the "
                "disjunct count itself multiplies here"));
      }
      return est;
    }
    case Kind::kOr: {
      est.disjuncts = 0;
      for (const auto& child : formula.children) {
        FamilyEstimate c = Infer(*child, diags);
        est.family = FamilyJoin(est.family, c.family);
        est.disjuncts = SatAdd(est.disjuncts, c.disjuncts);
        est.assumed_preds = est.assumed_preds || c.assumed_preds;
      }
      est.family =
          FamilyJoin(est.family, ConstraintFamily::kDisjunctive);
      if (est.disjuncts == 0) est.disjuncts = 1;
      return est;
    }
    case Kind::kNot: {
      FamilyEstimate c = Infer(*formula.children[0], diags);
      if (c.family != ConstraintFamily::kConjunctive) {
        diags->push_back(MakeDiag(
            DiagCode::kNonConjunctiveNegation, {formula.offset, 3},
            "NOT of a " + std::string(ConstraintFamilyToString(c.family)) +
                " formula has no §3 family closed-form (negation is only "
                "defined for conjunctive bodies); the evaluator falls "
                "back to full DNF complementation"));
      }
      // ~(a1 and .. and ak) = (~a1 or .. or ~ak).
      est.family = ConstraintFamily::kDisjunctive;
      if (FamilyHasExistentials(c.family)) {
        est.family = ConstraintFamily::kDisjunctiveExistential;
      }
      est.disjuncts =
          std::max<size_t>(CountAtoms(*formula.children[0]), 1);
      est.assumed_preds = c.assumed_preds;
      return est;
    }
    case Kind::kProject:
    case Kind::kExists: {
      FamilyEstimate c = Infer(*formula.children[0], diags);
      std::set<std::string> body_free =
          FreeConstraintVars(*formula.children[0]);
      size_t eliminated = 0;
      size_t kept = 0;
      if (formula.kind == Kind::kProject) {
        std::set<std::string> keep(formula.proj_vars.begin(),
                                   formula.proj_vars.end());
        for (const std::string& v : body_free) {
          if (keep.count(v)) {
            ++kept;
          } else {
            ++eliminated;
          }
        }
      } else {
        std::set<std::string> drop(formula.proj_vars.begin(),
                                   formula.proj_vars.end());
        for (const std::string& v : body_free) {
          if (drop.count(v)) {
            ++eliminated;
          } else {
            ++kept;
          }
        }
      }
      est = c;
      if (eliminated > 1 && kept > 1) {
        // Outside the restricted projection of §3.1: neither "eliminate
        // at most one" nor "keep at most one" holds. The family absorbs
        // the quantifier; eager materialization runs unrestricted QE.
        est.family = FamilyJoin(Existentialize(c.family), c.family);
        diags->push_back(MakeDiag(
            DiagCode::kUnrestrictedProjection, {formula.offset, 1},
            "projection eliminates " + std::to_string(eliminated) +
                " of " + std::to_string(eliminated + kept) +
                " variables while keeping " + std::to_string(kept) +
                " — outside the restricted fragment of §3.1; the body is "
                "absorbed as " +
                ConstraintFamilyToString(est.family) +
                ", and eager materialization runs unrestricted "
                "quantifier elimination"));
      }
      // Restricted (or trivial) quantification stays in the stored
      // family: QE eliminates eagerly in polynomial time.
      return est;
    }
  }
  return est;
}

void FamilyChecker::NoteFamily(const ast::Formula& formula,
                               const std::string& context,
                               const FamilyEstimate& est,
                               std::vector<Diagnostic>* diags) const {
  std::string msg = context + " " + Excerpt(formula) +
                    ": inferred constraint family " +
                    ConstraintFamilyToString(est.family) + " (~" +
                    std::to_string(est.disjuncts) + " disjunct" +
                    (est.disjuncts == 1 ? "" : "s") + ")";
  if (est.assumed_preds) {
    msg += "; unresolved predicate families assumed conjunctive";
  }
  diags->push_back(
      MakeDiag(DiagCode::kFamilyInfo, {formula.offset, 1}, msg));
}

void FamilyChecker::CheckWhere(const ast::WhereExpr& where,
                               std::vector<Diagnostic>* diags) const {
  using Kind = ast::WhereExpr::Kind;
  switch (where.kind) {
    case Kind::kAnd:
    case Kind::kOr:
    case Kind::kNot:
      for (const auto& child : where.children) CheckWhere(*child, diags);
      return;
    case Kind::kPathPred:
    case Kind::kCompare:
      return;
    case Kind::kFormulaSat: {
      FamilyEstimate est = Infer(*where.formula, diags);
      NoteFamily(*where.formula, "SAT test over", est, diags);
      return;
    }
    case Kind::kEntails: {
      FamilyEstimate lhs = Infer(*where.ent_lhs, diags);
      FamilyEstimate rhs = Infer(*where.ent_rhs, diags);
      NoteFamily(*where.ent_lhs, "entailment lhs", lhs, diags);
      NoteFamily(*where.ent_rhs, "entailment rhs", rhs, diags);
      if (FamilyHasDisjunction(rhs.family) && rhs.disjuncts > 1) {
        diags->push_back(MakeDiag(
            DiagCode::kDisjunctiveEntailment,
            {where.ent_rhs->offset, 1},
            "entailment right-hand side is " +
                std::string(ConstraintFamilyToString(rhs.family)) +
                " (~" + std::to_string(rhs.disjuncts) +
                " disjuncts): phi |= (d1 or d2 or ...) falls outside "
                "the per-disjunct polynomial entailment checks of §3 "
                "and requires quantifier elimination of the right side"));
      }
      return;
    }
  }
}

void FamilyChecker::CheckQuery(const ast::Query& query,
                               std::vector<Diagnostic>* diags) const {
  for (size_t i = 0; i < query.select.size(); ++i) {
    const ast::SelectItem& item = query.select[i];
    const std::string slot = "SELECT item " + std::to_string(i + 1) + ",";
    switch (item.kind) {
      case ast::SelectItem::Kind::kPath:
        break;
      case ast::SelectItem::Kind::kFormulaObject: {
        FamilyEstimate est = Infer(*item.formula, diags);
        NoteFamily(*item.formula, slot, est, diags);
        break;
      }
      case ast::SelectItem::Kind::kOptimize: {
        FamilyEstimate est = Infer(*item.formula, diags);
        NoteFamily(*item.formula, slot + " optimization body", est, diags);
        if (FamilyHasDisjunction(est.family) && est.disjuncts > 1) {
          diags->push_back(MakeDiag(
              DiagCode::kDisjunctiveOptimize, {item.offset, 1},
              "MAX/MIN over a " +
                  std::string(ConstraintFamilyToString(est.family)) +
                  " body solves one linear program per disjunct (~" +
                  std::to_string(est.disjuncts) + ")"));
        }
        break;
      }
    }
  }
  if (query.where) CheckWhere(*query.where, diags);
}

}  // namespace lyric
