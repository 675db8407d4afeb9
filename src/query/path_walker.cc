#include "query/path_walker.h"

#include "exec/governor.h"

namespace lyric {

namespace {

struct WalkState {
  Binding binding;
  Oid cur;
  IfaceMap iface;
  std::vector<DimInfo> dims;  // Set when `cur` was reached via a CST attr.
  bool cst_tail = false;
};

void CollectFromFormula(const ast::Formula& f, std::set<std::string>* out,
                        const Database& db);

// Is `name` an attribute or method of any schema class? Identifiers in
// attribute position that name neither anywhere are higher-order attribute
// variables (§2.2's querying-without-full-schema-knowledge mechanism).
bool IsKnownAttribute(const Database& db, const std::string& name) {
  for (const std::string& cls : db.schema().ClassNames()) {
    if (db.schema().FindAttribute(cls, name).ok()) return true;
  }
  return db.methods().HasAnywhere(name);
}

void CollectFromPath(const ast::PathExpr& p, std::set<std::string>* out,
                     const Database& db) {
  for (const auto& step : p.steps) {
    if (step.selector.has_value() &&
        step.selector->kind == ast::NameOrLiteral::Kind::kName) {
      // A bracket identifier is a variable unless it names a stored
      // symbolic object (g-selector).
      if (!db.HasObject(Oid::Symbol(step.selector->name))) {
        out->insert(step.selector->name);
      }
    }
    if (!IsKnownAttribute(db, step.attribute)) {
      out->insert(step.attribute);  // Attribute variable.
    }
  }
}

void CollectFromArith(const ast::ArithExpr& a, std::set<std::string>* out,
                      const Database& db) {
  if (a.path) CollectFromPath(*a.path, out, db);
  for (const ast::ArithExpr& operand : a.operands) {
    CollectFromArith(operand, out, db);
  }
}

void CollectFromFormula(const ast::Formula& f, std::set<std::string>* out,
                        const Database& db) {
  if (f.atom_lhs) CollectFromArith(*f.atom_lhs, out, db);
  if (f.atom_rhs) CollectFromArith(*f.atom_rhs, out, db);
  if (f.pred) CollectFromPath(*f.pred, out, db);
  for (const auto& child : f.children) CollectFromFormula(*child, out, db);
}

void CollectFromWhere(const ast::WhereExpr& w, std::set<std::string>* out,
                      const Database& db) {
  for (const auto& child : w.children) CollectFromWhere(*child, out, db);
  switch (w.kind) {
    case ast::WhereExpr::Kind::kPathPred:
      CollectFromPath(w.path, out, db);
      break;
    case ast::WhereExpr::Kind::kCompare:
      if (w.cmp_lhs.kind == ast::WhereExpr::Operand::Kind::kPath) {
        CollectFromPath(w.cmp_lhs.path, out, db);
      }
      if (w.cmp_rhs.kind == ast::WhereExpr::Operand::Kind::kPath) {
        CollectFromPath(w.cmp_rhs.path, out, db);
      }
      break;
    case ast::WhereExpr::Kind::kFormulaSat:
      CollectFromFormula(*w.formula, out, db);
      break;
    case ast::WhereExpr::Kind::kEntails:
      CollectFromFormula(*w.ent_lhs, out, db);
      CollectFromFormula(*w.ent_rhs, out, db);
      break;
    default:
      break;
  }
}

}  // namespace

std::set<std::string> CollectDeclaredVars(const ast::Query& query,
                                          const Database& db) {
  std::set<std::string> out;
  for (const auto& item : query.from) out.insert(item.var);
  if (query.where) CollectFromWhere(*query.where, &out, db);
  for (const auto& item : query.select) {
    if (item.kind == ast::SelectItem::Kind::kPath) {
      CollectFromPath(item.path, &out, db);
    }
    if (item.formula) CollectFromFormula(*item.formula, &out, db);
    if (item.objective) CollectFromArith(*item.objective, &out, db);
  }
  if (query.is_view && !db.schema().HasClass(query.view_name)) {
    // A view named by a query variable (the higher-order Region pattern)
    // only counts as one when the name is already a FROM variable.
    // (A fresh class name must not be mistaken for a variable.)
  }
  return out;
}

Result<IfaceMap> DefaultIfaceMap(const Oid& oid, const Database& db) {
  IfaceMap out;
  Result<std::string> cls = db.ClassOf(oid);
  if (!cls.ok()) return out;  // Literals have no interface.
  LYRIC_ASSIGN_OR_RETURN(const ClassDef* def, db.schema().GetClass(*cls));
  for (const std::string& v : def->interface_vars) {
    out[v] = DimInfo{v, oid.ToString() + "." + v};
  }
  return out;
}

Result<std::vector<PathResult>> WalkPath(
    const ast::PathExpr& path, const Binding& binding, Database& db,
    const std::set<std::string>& declared) {
  // Resolve the head selector.
  WalkState start;
  start.binding = binding;
  if (path.head.kind == ast::NameOrLiteral::Kind::kLiteral) {
    start.cur = path.head.literal;
  } else if (declared.count(path.head.name)) {
    // An attribute variable at head position denotes the attribute name
    // it is bound to (as a string oid); the path cannot continue.
    auto ait = binding.attr_vars.find(path.head.name);
    if (ait != binding.attr_vars.end()) {
      if (!path.steps.empty()) {
        return Status::TypeError("attribute variable '" + path.head.name +
                                 "' cannot head a multi-step path");
      }
      return std::vector<PathResult>{
          PathResult{binding, Oid::Str(ait->second), {}}};
    }
    auto it = binding.vars.find(path.head.name);
    if (it == binding.vars.end()) {
      return Status::InvalidArgument(
          "variable '" + path.head.name +
          "' is unbound at the head of path " + path.ToString() +
          "; bind it via FROM or an earlier predicate");
    }
    start.cur = it->second;
    auto mit = binding.iface_maps.find(path.head.name);
    if (mit != binding.iface_maps.end()) {
      start.iface = mit->second;
    } else {
      LYRIC_ASSIGN_OR_RETURN(start.iface, DefaultIfaceMap(start.cur, db));
    }
    auto dit = binding.cst_dims.find(path.head.name);
    if (dit != binding.cst_dims.end()) {
      start.dims = dit->second;
      start.cst_tail = start.cur.IsCst();
    }
  } else {
    start.cur = Oid::Symbol(path.head.name);
    LYRIC_ASSIGN_OR_RETURN(start.iface, DefaultIfaceMap(start.cur, db));
  }

  std::vector<WalkState> states{std::move(start)};
  for (const ast::PathExpr::Step& step : path.steps) {
    // Attribute-variable enumeration can fan the state set out by the
    // schema width at every step; keep governed walks cancellable.
    LYRIC_RETURN_NOT_OK(exec::CheckCancellation("path_walker.step"));
    std::vector<WalkState> next;
    for (WalkState& state : states) {
      // Which attribute names apply at this step?
      std::vector<std::pair<std::string, bool>> attr_names;  // (name, bind?)
      if (declared.count(step.attribute)) {
        auto it = state.binding.attr_vars.find(step.attribute);
        if (it != state.binding.attr_vars.end()) {
          attr_names.emplace_back(it->second, false);
        } else {
          // Higher-order attribute variable: enumerate.
          Result<std::string> cls = db.ClassOf(state.cur);
          if (!cls.ok()) continue;
          Result<std::vector<const AttributeDef*>> attrs =
              db.schema().AllAttributes(*cls);
          if (!attrs.ok()) continue;
          for (const AttributeDef* a : *attrs) {
            attr_names.emplace_back(a->name, true);
          }
        }
      } else {
        attr_names.emplace_back(step.attribute, false);
      }
      for (const auto& [attr_name, bind_attr_var] : attr_names) {
        Result<std::string> cls = db.DynamicClassOf(state.cur);
        if (!cls.ok()) continue;  // Dead end: unmanaged symbol.
        Result<const AttributeDef*> def =
            db.schema().FindAttribute(*cls, attr_name);
        Result<Value> value = Status::NotFound("");
        bool via_method = false;
        if (def.ok()) {
          value = db.GetAttribute(state.cur, attr_name);
          if (!value.ok()) continue;  // Attribute unset on this object.
        } else {
          // "An attribute is regarded as a 0-ary method" (§2.1): fall back
          // to a method of the same name with no arguments.
          if (!db.methods().Has(db.schema(), *cls, attr_name)) continue;
          value = db.InvokeMethod(state.cur, attr_name, {});
          if (!value.ok()) continue;
          via_method = true;
        }

        for (const Oid& element : value->elements()) {
          WalkState out;
          out.binding = state.binding;
          if (bind_attr_var) {
            out.binding.attr_vars[step.attribute] = attr_name;
          }
          out.cur = element;
          if (via_method) {
            // Method results carry no schema dimension context.
            out.cst_tail = element.IsCst();
          } else if ((*def)->IsCst()) {
            out.cst_tail = true;
            for (const std::string& v : (*def)->variables) {
              auto vit = state.iface.find(v);
              if (vit != state.iface.end()) {
                out.dims.push_back(vit->second);
              } else {
                out.dims.push_back(
                    DimInfo{v, state.cur.ToString() + "." + v});
              }
            }
          } else {
            // Interface renaming into the target object's namespace.
            Result<const ClassDef*> target =
                db.schema().GetClass((*def)->target_class);
            if (target.ok() && !(*target)->interface_vars.empty()) {
              const std::vector<std::string>& formals =
                  (*target)->interface_vars;
              const std::vector<std::string>& actuals =
                  (*def)->variables.empty() ? formals : (*def)->variables;
              for (size_t i = 0; i < formals.size(); ++i) {
                auto vit = state.iface.find(actuals[i]);
                out.iface[formals[i]] =
                    vit != state.iface.end()
                        ? vit->second
                        : DimInfo{actuals[i],
                                  state.cur.ToString() + "." + actuals[i]};
              }
            }
          }
          // Apply the bracket selector.
          if (step.selector.has_value()) {
            const ast::NameOrLiteral& sel = *step.selector;
            if (sel.kind == ast::NameOrLiteral::Kind::kLiteral) {
              if (element != sel.literal) continue;
            } else if (declared.count(sel.name)) {
              auto bit = out.binding.vars.find(sel.name);
              if (bit != out.binding.vars.end()) {
                if (bit->second != element) continue;
                // Refresh context info for an already-bound variable only
                // if absent (first binding wins).
                if (out.cst_tail && !out.binding.cst_dims.count(sel.name)) {
                  out.binding.cst_dims[sel.name] = out.dims;
                }
              } else {
                out.binding.vars[sel.name] = element;
                if (out.cst_tail) {
                  out.binding.cst_dims[sel.name] = out.dims;
                } else {
                  out.binding.iface_maps[sel.name] = out.iface;
                }
              }
            } else {
              if (element != Oid::Symbol(sel.name)) continue;
            }
          }
          next.push_back(std::move(out));
        }
      }
    }
    states = std::move(next);
  }

  std::vector<PathResult> out;
  out.reserve(states.size());
  for (WalkState& s : states) {
    out.push_back(PathResult{std::move(s.binding), std::move(s.cur),
                             std::move(s.dims)});
  }
  return out;
}

}  // namespace lyric
