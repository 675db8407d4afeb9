#include "query/analyzer.h"

#include <algorithm>

#include "query/family_check.h"
#include "query/parser.h"
#include "query/path_walker.h"

namespace lyric {

// Variables known to be bound at the current point, with their inferred
// classes ("" = bound but class unknown).
struct Analyzer::Scope {
  std::map<std::string, std::string> bound;
  std::set<std::string> declared;

  bool IsBound(const std::string& var) const { return bound.count(var) > 0; }
  void Bind(const std::string& var, const std::string& cls) {
    auto [it, inserted] = bound.emplace(var, cls);
    if (!inserted && it->second.empty()) it->second = cls;
  }
};

namespace {

// True for identifiers that denote attribute variables (no such attribute
// anywhere in the schema).
bool IsAttributeVariable(const Database& db, const std::string& name) {
  for (const std::string& cls : db.schema().ClassNames()) {
    if (db.schema().FindAttribute(cls, name).ok()) return false;
  }
  return !db.methods().HasAnywhere(name);
}

std::optional<size_t> CstDimensionOf(const std::string& cls) {
  return ParseCstClassName(cls);
}

// Emits an error diagnostic; the false return is the caller's "stop this
// clause" signal.
bool EmitError(AnalysisReport* report, DiagCode code, SourceSpan span,
               std::string message) {
  report->diagnostics.push_back(MakeDiag(code, span, std::move(message)));
  return false;
}

// Emits a warning diagnostic and mirrors it into the legacy string list.
void EmitWarning(AnalysisReport* report, DiagCode code, SourceSpan span,
                 std::string message) {
  report->warnings.push_back(message);
  report->diagnostics.push_back(MakeDiag(code, span, std::move(message)));
}

}  // namespace

StatusCode DiagCodeToStatusCode(DiagCode code) {
  switch (code) {
    case DiagCode::kLexError:
    case DiagCode::kSyntaxError:
      return StatusCode::kParseError;
    case DiagCode::kUnknownClass:
    case DiagCode::kUnknownViewParent:
    case DiagCode::kUnknownSigTarget:
      return StatusCode::kNotFound;
    case DiagCode::kViewExists:
      return StatusCode::kAlreadyExists;
    default:
      return StatusCode::kTypeError;
  }
}

bool Analyzer::CheckPath(const ast::PathExpr& path, Scope* scope,
                         AnalysisReport* report, bool binding_allowed,
                         std::string* tail_class) const {
  std::string cur_class;
  if (path.head.kind == ast::NameOrLiteral::Kind::kLiteral) {
    cur_class = "";  // Literal heads type as their oid kind; steps rare.
  } else if (scope->declared.count(path.head.name)) {
    if (!scope->IsBound(path.head.name)) {
      return EmitError(
          report, DiagCode::kUseBeforeBind,
          {path.offset, path.head.name.size()},
          "variable '" + path.head.name + "' is used in path " +
              path.ToString() +
              " before it is bound (bind it via FROM or an earlier "
              "conjunct)");
    }
    cur_class = scope->bound.at(path.head.name);
  } else {
    // Symbolic oid.
    Oid sym = Oid::Symbol(path.head.name);
    if (db_->HasObject(sym)) {
      Result<std::string> cls = db_->ClassOf(sym);
      if (cls.ok()) cur_class = *cls;
    } else {
      EmitWarning(report, DiagCode::kUnknownSymbolicOid,
                  {path.offset, path.head.name.size()},
                  "symbolic oid '" + path.head.name +
                      "' does not name a stored object");
    }
  }
  for (const ast::PathExpr::Step& step : path.steps) {
    std::string next_class;
    bool next_known = false;
    const AttributeDef* cst_attr = nullptr;
    if (IsAttributeVariable(*db_, step.attribute)) {
      EmitWarning(
          report, DiagCode::kAttributeVariable,
          {step.offset, step.attribute.size()},
          "'" + step.attribute + "' in path " + path.ToString() +
              " is a higher-order attribute variable (enumerates "
              "attributes)");
    } else if (!cur_class.empty()) {
      auto dim = CstDimensionOf(cur_class);
      Result<const AttributeDef*> attr =
          db_->schema().FindAttribute(cur_class, step.attribute);
      if (!attr.ok() &&
          db_->methods().Has(db_->schema(), cur_class, step.attribute)) {
        // A 0-ary method step; its result class depends on dispatch, so
        // the walk continues with an unknown class.
      } else if (!attr.ok()) {
        if (dim.has_value() || cur_class == kCstClass) {
          // CST oids may carry extra instance-of classes with attributes;
          // not statically resolvable.
          EmitWarning(report, DiagCode::kDynamicCstAttribute,
                      {step.offset, step.attribute.size()},
                      "attribute '" + step.attribute +
                          "' on a CST value in path " + path.ToString() +
                          " cannot be checked statically");
        } else {
          return EmitError(report, DiagCode::kUnknownAttribute,
                           {step.offset, step.attribute.size()},
                           "class '" + cur_class + "' has no attribute '" +
                               step.attribute + "' (in path " +
                               path.ToString() + ")");
        }
      } else {
        next_known = true;
        if ((*attr)->IsCst()) {
          next_class = CstClassName((*attr)->variables.size());
          cst_attr = *attr;
        } else {
          next_class = (*attr)->target_class;
        }
      }
    }
    // Selector handling.
    if (step.selector.has_value() &&
        step.selector->kind == ast::NameOrLiteral::Kind::kName &&
        scope->declared.count(step.selector->name)) {
      const std::string& var = step.selector->name;
      if (!scope->IsBound(var)) {
        if (!binding_allowed) {
          return EmitError(
              report, DiagCode::kUseBeforeBind,
              {step.selector->offset, var.size()},
              "variable '" + var +
                  "' cannot be bound inside this context (" +
                  path.ToString() + ")");
        }
        scope->Bind(var, next_known ? next_class : "");
        if (cst_attr != nullptr) {
          report->var_dims[var] = cst_attr->variables;
        }
      } else if (next_known && !scope->bound.at(var).empty()) {
        const std::string& have = scope->bound.at(var);
        if (have != next_class &&
            !db_->schema().IsSubclass(have, next_class) &&
            !db_->schema().IsSubclass(next_class, have)) {
          return EmitError(report, DiagCode::kClassConflict,
                           {step.selector->offset, var.size()},
                           "variable '" + var + "' is used both as '" +
                               have + "' and as '" + next_class +
                               "' (in path " + path.ToString() + ")");
        }
      }
    }
    cur_class = next_known ? next_class : "";
  }
  *tail_class = cur_class;
  return true;
}

bool Analyzer::CheckArith(const ast::ArithExpr& expr, const Scope& scope,
                          AnalysisReport* report) const {
  using Kind = ast::ArithExpr::Kind;
  switch (expr.kind) {
    case Kind::kConst:
      return true;
    case Kind::kName:
      if (scope.declared.count(expr.name) && !scope.IsBound(expr.name)) {
        return EmitError(report, DiagCode::kUseBeforeBind,
                         {expr.offset, expr.name.size()},
                         "query variable '" + expr.name +
                             "' is used in a formula before it is bound");
      }
      if (scope.IsBound(expr.name)) {
        const std::string& cls = scope.bound.at(expr.name);
        if (!cls.empty() && cls != kIntClass && cls != kRealClass) {
          return EmitError(
              report, DiagCode::kNotNumeric, {expr.offset, expr.name.size()},
              "query variable '" + expr.name + "' of class '" + cls +
                  "' is used as a number in a formula");
        }
      }
      return true;
    case Kind::kPath: {
      Scope copy = scope;  // Paths in arithmetic never bind.
      std::string cls;
      if (!CheckPath(*expr.path, &copy, report, /*binding_allowed=*/false,
                     &cls)) {
        return false;
      }
      if (!cls.empty() && cls != kIntClass && cls != kRealClass) {
        return EmitError(report, DiagCode::kNotNumeric, {expr.offset, 1},
                         "path " + expr.path->ToString() + " of class '" +
                             cls + "' is used as a number in a formula");
      }
      return true;
    }
    case Kind::kNeg:
    case Kind::kSum:
    case Kind::kProduct:
      for (const ast::ArithExpr& operand : expr.operands) {
        if (!CheckArith(operand, scope, report)) return false;
      }
      return true;
  }
  return true;
}

bool Analyzer::CheckFormula(const ast::Formula& formula, const Scope& scope,
                            AnalysisReport* report) const {
  using Kind = ast::Formula::Kind;
  switch (formula.kind) {
    case Kind::kTrue:
    case Kind::kFalse:
      return true;
    case Kind::kAtom:
      return CheckArith(*formula.atom_lhs, scope, report) &&
             CheckArith(*formula.atom_rhs, scope, report);
    case Kind::kAnd:
    case Kind::kOr:
    case Kind::kNot:
      for (const auto& child : formula.children) {
        if (!CheckFormula(*child, scope, report)) return false;
      }
      return true;
    case Kind::kProject:
    case Kind::kExists:
      return CheckFormula(*formula.children[0], scope, report);
    case Kind::kPred: {
      Scope copy = scope;
      std::string cls;
      if (!CheckPath(*formula.pred, &copy, report,
                     /*binding_allowed=*/false, &cls)) {
        return false;
      }
      auto dim = CstDimensionOf(cls);
      if (!cls.empty() && !dim.has_value() && cls != kCstClass &&
          !db_->schema().IsSubclass(cls, kCstClass)) {
        return EmitError(report, DiagCode::kNotCstPredicate,
                         {formula.pred->offset, 1},
                         "predicate " + formula.pred->ToString() +
                             " has class '" + cls +
                             "', which is not a CST class");
      }
      if (dim.has_value() && formula.pred_args.has_value() &&
          formula.pred_args->size() != *dim) {
        return EmitError(
            report, DiagCode::kArityMismatch, {formula.pred->offset, 1},
            "predicate " + formula.pred->ToString() + " has dimension " +
                std::to_string(*dim) + " but is invoked with " +
                std::to_string(formula.pred_args->size()) + " variables");
      }
      return true;
    }
  }
  return EmitError(report, DiagCode::kBadSelectFormula,
                   {formula.offset, 1}, "bad formula node");
}

bool Analyzer::CheckWhere(const ast::WhereExpr& where, Scope* scope,
                          AnalysisReport* report) const {
  using Kind = ast::WhereExpr::Kind;
  switch (where.kind) {
    case Kind::kAnd:
      for (const auto& child : where.children) {
        if (!CheckWhere(*child, scope, report)) return false;
      }
      return true;
    case Kind::kOr: {
      // Bindings inside OR branches do not escape (a row may satisfy only
      // one branch).
      bool ok = true;
      for (const auto& child : where.children) {
        Scope branch = *scope;
        ok = CheckWhere(*child, &branch, report) && ok;
      }
      return ok;
    }
    case Kind::kNot: {
      Scope inner = *scope;
      return CheckWhere(*where.children[0], &inner, report);
    }
    case Kind::kPathPred: {
      std::string cls;
      return CheckPath(where.path, scope, report, /*binding_allowed=*/true,
                       &cls);
    }
    case Kind::kCompare: {
      for (const ast::WhereExpr::Operand* op :
           {&where.cmp_lhs, &where.cmp_rhs}) {
        if (op->kind == ast::WhereExpr::Operand::Kind::kPath) {
          std::string cls;
          if (!CheckPath(op->path, scope, report, /*binding_allowed=*/true,
                         &cls)) {
            return false;
          }
        }
      }
      return true;
    }
    case Kind::kFormulaSat:
      return CheckFormula(*where.formula, *scope, report);
    case Kind::kEntails:
      return CheckFormula(*where.ent_lhs, *scope, report) &&
             CheckFormula(*where.ent_rhs, *scope, report);
  }
  return false;
}

AnalysisReport Analyzer::Check(const ast::Query& query) const {
  AnalysisReport report;
  Scope scope;
  scope.declared = CollectDeclaredVars(query, *db_);

  // FROM: report every unknown class, not just the first.
  for (const ast::FromItem& item : query.from) {
    if (!db_->schema().HasClass(item.class_name)) {
      EmitError(&report, DiagCode::kUnknownClass,
                {item.class_offset, item.class_name.size()},
                "FROM: unknown class '" + item.class_name + "'");
      continue;
    }
    if (scope.IsBound(item.var)) {
      EmitWarning(&report, DiagCode::kDuplicateFromVar,
                  {item.var_offset, item.var.size()},
                  "FROM variable '" + item.var +
                      "' is declared twice (instances must agree)");
    }
    scope.Bind(item.var, item.class_name);
  }
  // View header.
  if (query.is_view) {
    if (!db_->schema().HasClass(query.view_parent)) {
      EmitError(&report, DiagCode::kUnknownViewParent,
                {query.view_parent_offset, query.view_parent.size()},
                "view parent class '" + query.view_parent +
                    "' does not exist");
    }
    for (const ast::SignatureItem& sig : query.signature) {
      if (!db_->schema().HasClass(sig.target_class)) {
        EmitError(&report, DiagCode::kUnknownSigTarget,
                  {sig.target_offset, sig.target_class.size()},
                  "signature target class '" + sig.target_class +
                      "' does not exist");
      }
    }
    if (!scope.declared.count(query.view_name) &&
        db_->schema().HasClass(query.view_name)) {
      EmitError(&report, DiagCode::kViewExists,
                {query.view_name_offset, query.view_name.size()},
                "view class '" + query.view_name + "' already exists");
    }
  }
  // WHERE (binds bracket variables in conjunct order). The walk stops at
  // the first error inside the tree — bindings are unreliable past it —
  // but later clauses still get checked.
  if (query.where) {
    CheckWhere(*query.where, &scope, &report);
  }
  // SELECT items see the post-WHERE scope; each item checks
  // independently so one broken column does not hide the next.
  for (const ast::SelectItem& item : query.select) {
    switch (item.kind) {
      case ast::SelectItem::Kind::kPath: {
        Scope copy = scope;
        std::string cls;
        CheckPath(item.path, &copy, &report, /*binding_allowed=*/false,
                  &cls);
        break;
      }
      case ast::SelectItem::Kind::kFormulaObject:
        if (item.formula->kind != ast::Formula::Kind::kProject) {
          EmitError(&report, DiagCode::kBadSelectFormula, {item.offset, 1},
                    "SELECT constraint item must be a projection "
                    "((x1,..,xn) | phi)");
          break;
        }
        CheckFormula(*item.formula, scope, &report);
        break;
      case ast::SelectItem::Kind::kOptimize:
        if (CheckArith(*item.objective, scope, &report)) {
          CheckFormula(*item.formula, scope, &report);
        }
        break;
    }
  }
  // OID FUNCTION OF variables must be bound.
  for (size_t i = 0; i < query.oid_function_of.size(); ++i) {
    const std::string& var = query.oid_function_of[i];
    if (!scope.IsBound(var)) {
      size_t offset = i < query.oid_function_of_offsets.size()
                          ? query.oid_function_of_offsets[i]
                          : 0;
      EmitError(&report, DiagCode::kUnboundOidVar, {offset, var.size()},
                "OID FUNCTION OF: variable '" + var + "' is never bound");
    }
  }
  for (const auto& [var, cls] : scope.bound) {
    if (!cls.empty()) report.var_classes.emplace(var, cls);
  }
  // §3 family pass: only meaningful when the query is well-typed.
  if (!report.has_errors()) {
    FamilyChecker families(db_, &scope.declared, &report.var_dims);
    families.CheckQuery(query, &report.diagnostics);
  }
  return report;
}

Result<AnalysisReport> Analyzer::Analyze(const ast::Query& query) const {
  AnalysisReport report = Check(query);
  for (const Diagnostic& diag : report.diagnostics) {
    if (diag.severity == Severity::kError) {
      return Status(DiagCodeToStatusCode(diag.code), diag.message);
    }
  }
  return report;
}

CheckResult CheckQueryText(const Database& db, const std::string& text) {
  CheckResult out;
  Diagnostic parse_diag;
  Result<ast::Query> query = ParseQuery(text, &parse_diag);
  if (!query.ok()) {
    out.diagnostics.push_back(std::move(parse_diag));
    return out;
  }
  out.parsed = true;
  Analyzer analyzer(&db);
  AnalysisReport report = analyzer.Check(*query);
  out.diagnostics = std::move(report.diagnostics);
  out.var_classes = std::move(report.var_classes);
  std::stable_sort(out.diagnostics.begin(), out.diagnostics.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return a.span.offset < b.span.offset;
                   });
  return out;
}

}  // namespace lyric
