#include "object/schema.h"

#include "util/sync.h"

namespace lyric {

std::string CstClassName(size_t dimension) {
  return std::string(kCstClass) + "(" + std::to_string(dimension) + ")";
}

std::optional<size_t> ParseCstClassName(const std::string& name) {
  const std::string prefix = std::string(kCstClass) + "(";
  if (name.size() < prefix.size() + 2 ||
      name.compare(0, prefix.size(), prefix) != 0 || name.back() != ')') {
    return std::nullopt;
  }
  std::string digits = name.substr(prefix.size(),
                                   name.size() - prefix.size() - 1);
  if (digits.empty()) return std::nullopt;
  size_t out = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    out = out * 10 + static_cast<size_t>(c - '0');
  }
  return out;
}

bool Schema::IsPrimitive(const std::string& name) {
  return name == kIntClass || name == kRealClass || name == kStringClass ||
         name == kBoolClass;
}

Schema::Schema() = default;

bool Schema::HasClass(const std::string& name) const {
  if (IsPrimitive(name) || name == kCstClass) return true;
  if (ParseCstClassName(name).has_value()) return true;
  return classes_.count(name) > 0;
}

Result<const ClassDef*> Schema::GetClass(const std::string& name) const {
  auto it = classes_.find(name);
  if (it != classes_.end()) return &it->second;
  const bool cst_n = ParseCstClassName(name).has_value();
  if (!IsPrimitive(name) && name != kCstClass && !cst_n) {
    return Status::NotFound("class '" + name + "' is not in the schema");
  }
  // Built-ins materialize on demand as attribute-free definitions in one
  // process-wide table. Concurrent read queries reach it (method
  // resolution, path walking), so the first lookup of a name inserts
  // under a leaf lock; map nodes never move, so the returned pointer
  // stays valid after the lock is released.
  static sync::Mutex* mu =
      new sync::Mutex(sync::LockRank::kSchemaBuiltins, "schema_builtins");
  static std::map<std::string, ClassDef>* builtins =
      new std::map<std::string, ClassDef>();
  sync::MutexLock lock(*mu);
  auto [bit, inserted] = builtins->try_emplace(name);
  if (inserted) {
    bit->second.name = name;
    if (cst_n) bit->second.parents = {kCstClass};
  }
  return &bit->second;
}

Status Schema::AddClass(ClassDef def) {
  if (HasClass(def.name)) {
    return Status::AlreadyExists("class '" + def.name + "' already exists");
  }
  for (const std::string& p : def.parents) {
    if (!HasClass(p)) {
      return Status::NotFound("class '" + def.name + "': unknown parent '" +
                              p + "'");
    }
  }
  // Interface variables must be distinct.
  {
    std::set<std::string> seen;
    for (const std::string& v : def.interface_vars) {
      if (!seen.insert(v).second) {
        return Status::InvalidArgument("class '" + def.name +
                                       "': repeated interface variable '" +
                                       v + "'");
      }
    }
  }
  for (const AttributeDef& attr : def.attributes) {
    if (attr.IsCst()) {
      if (attr.variables.empty()) {
        return Status::InvalidArgument(
            "class '" + def.name + "': CST attribute '" + attr.name +
            "' needs a variable list, e.g. CST(w, z)");
      }
      std::set<std::string> seen;
      for (const std::string& v : attr.variables) {
        if (!seen.insert(v).second) {
          return Status::InvalidArgument(
              "class '" + def.name + "': CST attribute '" + attr.name +
              "' repeats variable '" + v + "'");
        }
      }
      continue;
    }
    if (!HasClass(attr.target_class)) {
      return Status::NotFound("class '" + def.name + "': attribute '" +
                              attr.name + "' targets unknown class '" +
                              attr.target_class + "'");
    }
    if (!attr.variables.empty()) {
      LYRIC_ASSIGN_OR_RETURN(const ClassDef* target,
                             GetClass(attr.target_class));
      if (target->interface_vars.size() != attr.variables.size()) {
        return Status::TypeError(
            "class '" + def.name + "': attribute '" + attr.name +
            "' renames " + std::to_string(attr.variables.size()) +
            " variables but class '" + attr.target_class +
            "' has an interface of " +
            std::to_string(target->interface_vars.size()));
      }
    }
  }
  // Parents exist already, so their ancestor sets are complete.
  std::set<std::string> ancestors{def.name};
  for (const std::string& p : def.parents) {
    std::set<std::string> up = Ancestors(p);
    ancestors.insert(up.begin(), up.end());
  }
  ancestors_.emplace(def.name, std::move(ancestors));
  order_.push_back(def.name);
  classes_.emplace(def.name, std::move(def));
  return Status::OK();
}

std::set<std::string> Schema::Ancestors(const std::string& name) const {
  auto it = ancestors_.find(name);
  if (it != ancestors_.end()) return it->second;
  std::set<std::string> out{name};
  if (name == kIntClass) out.insert(kRealClass);
  if (ParseCstClassName(name).has_value()) out.insert(kCstClass);
  return out;
}

bool Schema::IsSubclass(const std::string& sub, const std::string& super) const {
  if (sub == super) return true;
  auto it = ancestors_.find(sub);
  if (it != ancestors_.end()) return it->second.count(super) > 0;
  if (sub == kIntClass) return super == kRealClass;
  return super == kCstClass && ParseCstClassName(sub).has_value();
}

Result<const AttributeDef*> Schema::FindAttribute(
    const std::string& class_name, const std::string& attr) const {
  LYRIC_ASSIGN_OR_RETURN(const ClassDef* def, GetClass(class_name));
  for (const AttributeDef& a : def->attributes) {
    if (a.name == attr) return &a;
  }
  for (const std::string& p : def->parents) {
    Result<const AttributeDef*> up = FindAttribute(p, attr);
    if (up.ok()) return up;
  }
  return Status::NotFound("class '" + class_name + "' has no attribute '" +
                          attr + "'");
}

Result<std::vector<const AttributeDef*>> Schema::AllAttributes(
    const std::string& class_name) const {
  LYRIC_ASSIGN_OR_RETURN(const ClassDef* def, GetClass(class_name));
  std::vector<const AttributeDef*> out;
  std::set<std::string> seen;
  // Own attributes shadow inherited ones.
  for (const AttributeDef& a : def->attributes) {
    if (seen.insert(a.name).second) out.push_back(&a);
  }
  for (const std::string& p : def->parents) {
    LYRIC_ASSIGN_OR_RETURN(std::vector<const AttributeDef*> up,
                           AllAttributes(p));
    for (const AttributeDef* a : up) {
      if (seen.insert(a->name).second) out.push_back(a);
    }
  }
  return out;
}

std::vector<std::string> Schema::SubclassesOf(const std::string& name) const {
  std::vector<std::string> out;
  for (const auto& [cls, def] : classes_) {
    (void)def;
    if (IsSubclass(cls, name)) out.push_back(cls);
  }
  return out;
}

}  // namespace lyric
