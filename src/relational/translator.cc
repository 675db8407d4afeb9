#include "relational/translator.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/parser.h"

namespace lyric {

struct FlatTranslator::TranslationState {
  FlatRelation rel;
  // Query variable -> column holding its oid.
  std::map<std::string, std::string> var_cols;
  // Object variable -> (class name, column prefix for its attributes).
  std::map<std::string, std::pair<std::string, std::string>> var_objects;
  int fresh_counter = 0;

  std::string Fresh() { return "$t" + std::to_string(fresh_counter++); }
};

Result<FlatRelation> FlatTranslator::Execute(const std::string& query_text) {
  LYRIC_ASSIGN_OR_RETURN(ast::Query query, ParseQuery(query_text));
  return Execute(query);
}

Status FlatTranslator::ProcessFrom(const ast::Query& query,
                                   TranslationState* st) const {
  for (const ast::FromItem& item : query.from) {
    LYRIC_ASSIGN_OR_RETURN(const FlatRelation* rel,
                           flat_->Relation(item.class_name));
    FlatRelation prefixed = rel->WithPrefix(item.var + ".");
    if (st->rel.columns().empty()) {
      st->rel = std::move(prefixed);
    } else {
      LYRIC_ASSIGN_OR_RETURN(st->rel,
                             FlatAlgebra::Product(st->rel, prefixed));
    }
    st->var_cols[item.var] = item.var + ".oid";
    st->var_objects[item.var] = {item.class_name, item.var + "."};
  }
  return Status::OK();
}

Result<std::string> FlatTranslator::ProcessPath(const ast::PathExpr& path,
                                                TranslationState* st) const {
  if (path.head.kind != ast::NameOrLiteral::Kind::kName ||
      !st->var_cols.count(path.head.name)) {
    return Status::NotImplemented(
        "flat translation: path must start at a FROM-bound or previously "
        "joined variable (got '" + path.ToString() + "')");
  }
  if (!path.steps.empty() && !st->var_objects.count(path.head.name)) {
    return Status::NotImplemented(
        "flat translation: variable '" + path.head.name +
        "' holds a terminal value; its attributes are not joined");
  }
  std::string cur_var = path.head.name;
  std::string terminal_col = st->var_cols.at(cur_var);
  for (size_t i = 0; i < path.steps.size(); ++i) {
    const ast::PathExpr::Step& step = path.steps[i];
    auto obj_it = st->var_objects.find(cur_var);
    if (obj_it == st->var_objects.end()) {
      return Status::NotImplemented(
          "flat translation: cannot continue path after a terminal value in "
          + path.ToString());
    }
    const auto& [cls, prefix] = obj_it->second;
    LYRIC_ASSIGN_OR_RETURN(const AttributeDef* attr,
                           db_->schema().FindAttribute(cls, step.attribute));
    std::string attr_col = prefix + step.attribute;
    terminal_col = attr_col;

    // Bind or check the selector.
    std::string bound_var;
    if (step.selector.has_value()) {
      if (step.selector->kind == ast::NameOrLiteral::Kind::kLiteral) {
        LYRIC_ASSIGN_OR_RETURN(
            st->rel, FlatAlgebra::SelectConst(st->rel, attr_col, "=",
                                              step.selector->literal));
      } else {
        bound_var = step.selector->name;
      }
    }

    bool is_last = i + 1 == path.steps.size();
    bool is_object_attr =
        !attr->IsCst() && !Schema::IsPrimitive(attr->target_class);

    if (is_object_attr && (!is_last || !bound_var.empty())) {
      // Join the target class relation so the walk can continue (or the
      // variable can expose the object's attributes later).
      std::string var = bound_var.empty() ? st->Fresh() : bound_var;
      if (st->var_cols.count(var)) {
        // Already joined: just equate.
        LYRIC_ASSIGN_OR_RETURN(
            st->rel, FlatAlgebra::SelectCols(st->rel, attr_col, "=",
                                             st->var_cols.at(var)));
      } else {
        LYRIC_ASSIGN_OR_RETURN(const FlatRelation* target,
                               flat_->Relation(attr->target_class));
        FlatRelation prefixed = target->WithPrefix(var + ".");
        LYRIC_OBS_COUNT("translator.joins");
        LYRIC_ASSIGN_OR_RETURN(
            st->rel,
            FlatAlgebra::Join(st->rel, attr_col, prefixed, var + ".oid"));
        st->var_cols[var] = var + ".oid";
        st->var_objects[var] = {attr->target_class, var + "."};
      }
      cur_var = var;
      terminal_col = st->var_cols.at(var);
    } else if (!bound_var.empty()) {
      // CST or primitive value bound to a variable: alias the column.
      if (st->var_cols.count(bound_var)) {
        LYRIC_ASSIGN_OR_RETURN(
            st->rel, FlatAlgebra::SelectCols(st->rel, attr_col, "=",
                                             st->var_cols.at(bound_var)));
      } else {
        st->var_cols[bound_var] = attr_col;
      }
      cur_var = bound_var;
    } else {
      cur_var = "";  // Terminal unnamed value.
    }
  }
  return terminal_col;
}

Result<LinearExpr> FlatTranslator::ExtractArith(
    const ast::ArithExpr& e) const {
  using Kind = ast::ArithExpr::Kind;
  switch (e.kind) {
    case Kind::kConst:
      return LinearExpr::Constant(e.constant);
    case Kind::kName:
      return LinearExpr::Var(Variable::Intern(e.name));
    case Kind::kPath:
      return Status::NotImplemented(
          "flat translation: path-valued arithmetic operand '" +
          e.ToString() + "'");
    case Kind::kNeg: {
      LYRIC_ASSIGN_OR_RETURN(LinearExpr a, ExtractArith(e.operands[0]));
      return -a;
    }
    case Kind::kSum: {
      LinearExpr sum;
      for (const ast::ArithExpr& operand : e.operands) {
        LYRIC_ASSIGN_OR_RETURN(LinearExpr a, ExtractArith(operand));
        if (operand.op == '-') a = -a;
        sum.AddConstant(a.constant());
        for (const auto& [var, coeff] : a.terms()) sum.AddTerm(var, coeff);
      }
      return sum;
    }
    case Kind::kProduct: {
      LinearExpr product = LinearExpr::Constant(Rational(1));
      for (const ast::ArithExpr& operand : e.operands) {
        LYRIC_ASSIGN_OR_RETURN(LinearExpr a, ExtractArith(operand));
        if (operand.op == '/') {
          if (!a.IsConstant() || a.constant().IsZero()) {
            return Status::TypeError("bad divisor in formula");
          }
          product = product.Scale(a.constant().Inverse());
        } else if (product.IsConstant()) {
          product = a.Scale(product.constant());
        } else if (a.IsConstant()) {
          product = product.Scale(a.constant());
        } else {
          return Status::TypeError("non-linear product in formula");
        }
      }
      return product;
    }
  }
  return Status::Internal("bad arith node");
}

Status FlatTranslator::ExtractFormula(const ast::Formula& f,
                                      const TranslationState& st,
                                      std::vector<CstColumnUse>* uses,
                                      Conjunction* extra) const {
  using Kind = ast::Formula::Kind;
  switch (f.kind) {
    case Kind::kTrue:
      return Status::OK();
    case Kind::kAnd:
      for (const auto& child : f.children) {
        LYRIC_RETURN_NOT_OK(ExtractFormula(*child, st, uses, extra));
      }
      return Status::OK();
    case Kind::kAtom: {
      LYRIC_ASSIGN_OR_RETURN(LinearExpr lhs, ExtractArith(*f.atom_lhs));
      LYRIC_ASSIGN_OR_RETURN(LinearExpr rhs, ExtractArith(*f.atom_rhs));
      if (f.relop == "=") {
        extra->Add(LinearConstraint::Eq(lhs, rhs));
      } else if (f.relop == "!=") {
        extra->Add(LinearConstraint::Neq(lhs, rhs));
      } else if (f.relop == "<=") {
        extra->Add(LinearConstraint::Le(lhs, rhs));
      } else if (f.relop == "<") {
        extra->Add(LinearConstraint::Lt(lhs, rhs));
      } else if (f.relop == ">=") {
        extra->Add(LinearConstraint::Ge(lhs, rhs));
      } else {
        extra->Add(LinearConstraint::Gt(lhs, rhs));
      }
      return Status::OK();
    }
    case Kind::kPred: {
      if (!f.pred_args.has_value()) {
        return Status::NotImplemented(
            "flat translation: predicate uses need explicit dimension "
            "variables (bare '" + f.pred->ToString() +
            "' relies on schema-name context)");
      }
      if (!f.pred->steps.empty() ||
          f.pred->head.kind != ast::NameOrLiteral::Kind::kName) {
        return Status::NotImplemented(
            "flat translation: predicate must be a bound CST variable");
      }
      auto it = st.var_cols.find(f.pred->head.name);
      if (it == st.var_cols.end()) {
        return Status::NotImplemented("flat translation: CST variable '" +
                                      f.pred->head.name + "' is not bound");
      }
      uses->push_back(CstColumnUse{it->second, *f.pred_args});
      return Status::OK();
    }
    default:
      return Status::NotImplemented(
          "flat translation: only conjunctive formulas are supported");
  }
}

Status FlatTranslator::ProcessWhere(const ast::WhereExpr& where,
                                    TranslationState* st) const {
  using Kind = ast::WhereExpr::Kind;
  switch (where.kind) {
    case Kind::kAnd:
      for (const auto& child : where.children) {
        LYRIC_RETURN_NOT_OK(ProcessWhere(*child, st));
      }
      return Status::OK();
    case Kind::kPathPred:
      return ProcessPath(where.path, st).status();
    case Kind::kCompare: {
      if (where.cmp_lhs.kind != ast::WhereExpr::Operand::Kind::kPath) {
        return Status::NotImplemented(
            "flat translation: comparison lhs must be a path");
      }
      LYRIC_ASSIGN_OR_RETURN(std::string lcol,
                             ProcessPath(where.cmp_lhs.path, st));
      if (where.cmp_rhs.kind == ast::WhereExpr::Operand::Kind::kLiteral) {
        LYRIC_ASSIGN_OR_RETURN(
            st->rel, FlatAlgebra::SelectConst(st->rel, lcol, where.cmp_op,
                                              where.cmp_rhs.literal));
      } else {
        LYRIC_ASSIGN_OR_RETURN(std::string rcol,
                               ProcessPath(where.cmp_rhs.path, st));
        LYRIC_ASSIGN_OR_RETURN(
            st->rel,
            FlatAlgebra::SelectCols(st->rel, lcol, where.cmp_op, rcol));
      }
      return Status::OK();
    }
    case Kind::kFormulaSat: {
      std::vector<CstColumnUse> uses;
      Conjunction extra;
      LYRIC_RETURN_NOT_OK(ExtractFormula(*where.formula, *st, &uses, &extra));
      LYRIC_ASSIGN_OR_RETURN(
          st->rel, FlatAlgebra::SelectCstSat(st->rel, *db_, uses, extra));
      return Status::OK();
    }
    case Kind::kEntails: {
      std::vector<CstColumnUse> lhs_uses, rhs_uses;
      Conjunction lhs_extra, rhs_extra;
      const ast::Formula* lhs = where.ent_lhs.get();
      const ast::Formula* rhs = where.ent_rhs.get();
      if (lhs->kind == ast::Formula::Kind::kProject) {
        lhs = lhs->children[0].get();
      }
      if (rhs->kind == ast::Formula::Kind::kProject) {
        rhs = rhs->children[0].get();
      }
      LYRIC_RETURN_NOT_OK(ExtractFormula(*lhs, *st, &lhs_uses, &lhs_extra));
      LYRIC_RETURN_NOT_OK(ExtractFormula(*rhs, *st, &rhs_uses, &rhs_extra));
      LYRIC_ASSIGN_OR_RETURN(
          st->rel,
          FlatAlgebra::SelectCstEntails(st->rel, *db_, lhs_uses, lhs_extra,
                                        rhs_uses, rhs_extra));
      return Status::OK();
    }
    default:
      return Status::NotImplemented(
          "flat translation: OR / NOT in WHERE is not supported; use the "
          "direct evaluator");
  }
}

Result<FlatRelation> FlatTranslator::Execute(const ast::Query& query) {
  LYRIC_OBS_COUNT("translator.queries");
  if (query.is_view) {
    return Status::NotImplemented(
        "flat translation: views are evaluated by the direct evaluator");
  }
  TranslationState st;
  {
    obs::Span span("translate_from");
    LYRIC_RETURN_NOT_OK(ProcessFrom(query, &st));
  }
  if (query.where) {
    obs::Span span("translate_where");
    LYRIC_RETURN_NOT_OK(ProcessWhere(*query.where, &st));
  }
  // SELECT: resolve each item to a column (constructing CST columns for
  // projection formulas), then project.
  obs::Span select_span("translate_select");
  std::vector<std::string> out_cols;
  int cst_counter = 0;
  for (const ast::SelectItem& item : query.select) {
    switch (item.kind) {
      case ast::SelectItem::Kind::kPath: {
        LYRIC_ASSIGN_OR_RETURN(std::string col, ProcessPath(item.path, &st));
        out_cols.push_back(col);
        break;
      }
      case ast::SelectItem::Kind::kFormulaObject: {
        const ast::Formula& f = *item.formula;
        if (f.kind != ast::Formula::Kind::kProject) {
          return Status::TypeError("SELECT constraint item must project");
        }
        std::vector<CstColumnUse> uses;
        Conjunction extra;
        LYRIC_RETURN_NOT_OK(
            ExtractFormula(*f.children[0], st, &uses, &extra));
        std::string col =
            item.name.value_or("cst#" + std::to_string(cst_counter++));
        LYRIC_ASSIGN_OR_RETURN(
            st.rel, FlatAlgebra::ConstructCst(st.rel, db_, uses, extra,
                                              f.proj_vars, col,
                                              /*eager=*/true));
        out_cols.push_back(col);
        break;
      }
      case ast::SelectItem::Kind::kOptimize:
        return Status::NotImplemented(
            "flat translation: MAX/MIN items are evaluated by the direct "
            "evaluator");
    }
  }
  return FlatAlgebra::Project(st.rel, out_cols);
}

}  // namespace lyric
