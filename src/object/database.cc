#include "object/database.h"

#include <algorithm>

namespace lyric {

Status Database::AddClass(ClassDef def) {
  std::string name = def.name;
  LYRIC_RETURN_NOT_OK(schema_.AddClass(std::move(def)));
  changes_.push_back({Change::Kind::kClass, Oid(), std::move(name)});
  return Status::OK();
}

Status Database::Insert(const Oid& oid, const std::string& class_name) {
  if (!schema_.HasClass(class_name)) {
    return Status::NotFound("Insert: unknown class '" + class_name + "'");
  }
  if (objects_.count(oid)) {
    return Status::AlreadyExists("object " + oid.ToString() +
                                 " already exists");
  }
  objects_.emplace(oid, ObjectRecord{class_name, {}});
  for (const std::string& cls : schema_.Ancestors(class_name)) {
    stored_extent_[cls].insert(oid);
  }
  changes_.push_back({Change::Kind::kObject, oid, {}});
  return Status::OK();
}

Status Database::AddInstanceOf(const Oid& oid,
                               const std::string& class_name) {
  if (!schema_.HasClass(class_name)) {
    return Status::NotFound("AddInstanceOf: unknown class '" + class_name +
                            "'");
  }
  std::vector<std::string>& classes = extra_classes_[oid];
  if (std::find(classes.begin(), classes.end(), class_name) !=
      classes.end()) {
    return Status::OK();
  }
  classes.push_back(class_name);
  for (const std::string& cls : schema_.Ancestors(class_name)) {
    fact_extent_[cls].insert(oid);
  }
  changes_.push_back({Change::Kind::kInstanceOf, oid, class_name});
  return Status::OK();
}

Status Database::CheckValueAgainst(const AttributeDef& attr,
                                   const Value& value) const {
  if (attr.set_valued != value.is_set()) {
    return Status::TypeError(
        "attribute '" + attr.name + "' is " +
        (attr.set_valued ? "set-valued" : "scalar") + " but the value is " +
        (value.is_set() ? "a set" : "a scalar"));
  }
  std::string target = attr.target_class;
  if (attr.IsCst()) target = CstClassName(attr.variables.size());
  for (const Oid& e : value.elements()) {
    if (!InstanceOf(e, target)) {
      return Status::TypeError("value " + e.ToString() +
                               " is not an instance of '" + target +
                               "' required by attribute '" + attr.name + "'");
    }
  }
  return Status::OK();
}

Status Database::SetAttribute(const Oid& oid, const std::string& attr,
                              Value value) {
  auto it = objects_.find(oid);
  if (it == objects_.end()) {
    return Status::NotFound("SetAttribute: no object " + oid.ToString());
  }
  LYRIC_ASSIGN_OR_RETURN(const AttributeDef* def,
                         schema_.FindAttribute(it->second.class_name, attr));
  LYRIC_RETURN_NOT_OK(CheckValueAgainst(*def, value));
  it->second.attrs[attr] = std::move(value);
  changes_.push_back({Change::Kind::kAttribute, oid, attr});
  return Status::OK();
}

Result<Oid> Database::SetCstAttribute(const Oid& oid, const std::string& attr,
                                      const CstObject& value) {
  LYRIC_ASSIGN_OR_RETURN(Oid cst_oid, InternCst(value));
  LYRIC_RETURN_NOT_OK(SetAttribute(oid, attr, Value::Scalar(cst_oid)));
  return cst_oid;
}

Result<Value> Database::GetAttribute(const Oid& oid,
                                     const std::string& attr) const {
  auto it = objects_.find(oid);
  if (it == objects_.end()) {
    return Status::NotFound("GetAttribute: no object " + oid.ToString());
  }
  auto ait = it->second.attrs.find(attr);
  if (ait == it->second.attrs.end()) {
    return Status::NotFound("object " + oid.ToString() +
                            " has no value for attribute '" + attr + "'");
  }
  return ait->second;
}

Status Database::ClearAttribute(const Oid& oid, const std::string& attr) {
  auto it = objects_.find(oid);
  if (it == objects_.end()) {
    return Status::NotFound("ClearAttribute: no object " + oid.ToString());
  }
  auto ait = it->second.attrs.find(attr);
  if (ait == it->second.attrs.end()) {
    return Status::NotFound("object " + oid.ToString() +
                            " has no value for attribute '" + attr + "'");
  }
  // Recorded before the erase: `attr` may be the erased key itself.
  changes_.push_back({Change::Kind::kAttribute, oid, attr});
  it->second.attrs.erase(ait);
  return Status::OK();
}

Status Database::DeleteObject(const Oid& oid, bool force) {
  auto it = objects_.find(oid);
  if (it == objects_.end()) {
    return Status::NotFound("DeleteObject: no object " + oid.ToString());
  }
  // Find inbound references.
  std::vector<std::pair<Oid, std::string>> referrers;
  for (const auto& [other, rec] : objects_) {
    if (other == oid) continue;
    for (const auto& [attr, value] : rec.attrs) {
      for (const Oid& e : value.elements()) {
        if (e == oid) referrers.emplace_back(other, attr);
      }
    }
  }
  if (!referrers.empty() && !force) {
    return Status::InvalidArgument(
        "object " + oid.ToString() + " is still referenced by " +
        referrers[0].first.ToString() + "." + referrers[0].second +
        (referrers.size() > 1
             ? " and " + std::to_string(referrers.size() - 1) + " more"
             : "") +
        "; pass force to cascade");
  }
  for (const auto& [other, attr] : referrers) {
    ObjectRecord& rec = objects_.at(other);
    const Value& old = rec.attrs.at(attr);
    if (old.is_scalar()) {
      rec.attrs.erase(attr);
    } else {
      std::vector<Oid> kept;
      for (const Oid& e : old.elements()) {
        if (e != oid) kept.push_back(e);
      }
      rec.attrs[attr] = Value::Set(std::move(kept));
    }
    changes_.push_back({Change::Kind::kAttribute, other, attr});
  }
  for (const std::string& cls : schema_.Ancestors(it->second.class_name)) {
    stored_extent_[cls].erase(oid);
  }
  auto eit = extra_classes_.find(oid);
  if (eit != extra_classes_.end()) {
    for (const std::string& fact_class : eit->second) {
      for (const std::string& cls : schema_.Ancestors(fact_class)) {
        fact_extent_[cls].erase(oid);
      }
    }
    extra_classes_.erase(eit);
  }
  // The object goes last: `oid` may be its key.
  changes_.push_back({Change::Kind::kDeleteObject, oid, {}});
  objects_.erase(it);
  return Status::OK();
}

Result<std::string> Database::ClassOf(const Oid& oid) const {
  auto it = objects_.find(oid);
  if (it == objects_.end()) {
    return Status::NotFound("ClassOf: no object " + oid.ToString());
  }
  return it->second.class_name;
}

Result<std::string> Database::DynamicClassOf(const Oid& oid) const {
  auto it = objects_.find(oid);
  if (it != objects_.end()) return it->second.class_name;
  switch (oid.kind()) {
    case OidKind::kInt:
      return std::string(kIntClass);
    case OidKind::kReal:
      return std::string(kRealClass);
    case OidKind::kString:
      return std::string(kStringClass);
    case OidKind::kBool:
      return std::string(kBoolClass);
    case OidKind::kCst: {
      LYRIC_ASSIGN_OR_RETURN(CstObject obj, GetCst(oid));
      return CstClassName(obj.Dimension());
    }
    default:
      break;
  }
  // Extra instance-of declarations give unmanaged oids a class too.
  auto eit = extra_classes_.find(oid);
  if (eit != extra_classes_.end() && !eit->second.empty()) {
    return eit->second.front();
  }
  return Status::NotFound("no class for oid " + oid.ToString());
}

Result<Value> Database::InvokeMethod(const Oid& self, const std::string& name,
                                     const std::vector<Oid>& args) {
  LYRIC_ASSIGN_OR_RETURN(std::string cls, DynamicClassOf(self));
  LYRIC_ASSIGN_OR_RETURN(const MethodEntry* entry,
                         methods_.Resolve(*this, cls, name, args));
  LYRIC_ASSIGN_OR_RETURN(Value out, entry->fn(this, self, args));
  // Check the result against the signature.
  if (out.is_set() != entry->signature.set_valued) {
    return Status::TypeError("method '" + name + "' returned a " +
                             (out.is_set() ? "set" : "scalar") +
                             " against its signature");
  }
  for (const Oid& e : out.elements()) {
    if (!InstanceOf(e, entry->signature.result_class)) {
      return Status::TypeError("method '" + name + "' returned " +
                               e.ToString() + ", not an instance of '" +
                               entry->signature.result_class + "'");
    }
  }
  return out;
}

Result<Oid> Database::InternCst(const CstObject& obj) {
  // CanonicalString runs outside the lock (it may call the simplex); only
  // the store insert is serialized.
  LYRIC_ASSIGN_OR_RETURN(std::string canonical, obj.CanonicalString());
  sync::MutexLock lock(*cst_mu_);
  auto it = cst_store_.find(canonical);
  if (it == cst_store_.end()) {
    cst_store_.emplace(canonical, obj);
  }
  return Oid::Cst(std::move(canonical));
}

Result<CstObject> Database::GetCst(const Oid& oid) const {
  if (!oid.IsCst()) {
    return Status::InvalidArgument("GetCst: " + oid.ToString() +
                                   " is not a CST oid");
  }
  sync::MutexLock lock(*cst_mu_);
  auto it = cst_store_.find(oid.AsString());
  if (it == cst_store_.end()) {
    return Status::NotFound("GetCst: unknown CST oid " + oid.ToString());
  }
  return it->second;
}

size_t Database::CstCount() const {
  sync::MutexLock lock(*cst_mu_);
  return cst_store_.size();
}

bool Database::InstanceOf(const Oid& oid,
                          const std::string& class_name) const {
  // Literal kinds.
  switch (oid.kind()) {
    case OidKind::kInt:
      if (class_name == kIntClass || class_name == kRealClass) return true;
      break;
    case OidKind::kReal:
      if (class_name == kRealClass) return true;
      break;
    case OidKind::kString:
      if (class_name == kStringClass) return true;
      break;
    case OidKind::kBool:
      if (class_name == kBoolClass) return true;
      break;
    case OidKind::kCst: {
      if (class_name == kCstClass) return true;
      auto dim = ParseCstClassName(class_name);
      if (dim.has_value()) {
        Result<CstObject> obj = GetCst(oid);
        if (obj.ok() && obj->Dimension() == *dim) return true;
      }
      break;
    }
    default:
      break;
  }
  auto sit = stored_extent_.find(class_name);
  if (sit != stored_extent_.end() && sit->second.count(oid) > 0) return true;
  auto fit = fact_extent_.find(class_name);
  return fit != fact_extent_.end() && fit->second.count(oid) > 0;
}

std::vector<Oid> Database::Extent(const std::string& class_name) const {
  std::vector<Oid> out;
  auto sit = stored_extent_.find(class_name);
  const std::set<Oid>* stored =
      sit != stored_extent_.end() ? &sit->second : nullptr;
  if (stored != nullptr) out.assign(stored->begin(), stored->end());
  // Instance-of facts: views over stored objects and classified literals.
  // Skip only the oids the stored extent already listed.
  auto fit = fact_extent_.find(class_name);
  if (fit != fact_extent_.end()) {
    for (const Oid& oid : fit->second) {
      if (stored == nullptr || stored->count(oid) == 0) out.push_back(oid);
    }
  }
  // CST oids by dimension.
  auto dim = ParseCstClassName(class_name);
  if (dim.has_value() || class_name == kCstClass) {
    std::set<Oid> listed(out.begin(), out.end());
    sync::MutexLock lock(*cst_mu_);
    for (const auto& [canonical, obj] : cst_store_) {
      if (!dim.has_value() || obj.Dimension() == *dim) {
        Oid oid = Oid::Cst(canonical);
        if (listed.insert(oid).second) out.push_back(std::move(oid));
      }
    }
  }
  return out;
}

std::vector<Oid> Database::AllObjects() const {
  std::vector<Oid> out;
  out.reserve(objects_.size());
  for (const auto& [oid, rec] : objects_) {
    (void)rec;
    out.push_back(oid);
  }
  return out;
}

Status Database::CheckIntegrity() const {
  for (const auto& [oid, rec] : objects_) {
    for (const auto& [name, value] : rec.attrs) {
      LYRIC_ASSIGN_OR_RETURN(const AttributeDef* def,
                             schema_.FindAttribute(rec.class_name, name));
      Status st = CheckValueAgainst(*def, value);
      if (!st.ok()) {
        return Status(st.code(), "object " + oid.ToString() + ": " +
                                     st.message());
      }
      // Object-class targets must reference stored objects.
      if (!def->IsCst() && !Schema::IsPrimitive(def->target_class)) {
        for (const Oid& e : value.elements()) {
          if (!objects_.count(e) && !extra_classes_.count(e)) {
            return Status::NotFound("object " + oid.ToString() +
                                    " attribute '" + name +
                                    "' references missing object " +
                                    e.ToString());
          }
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace lyric
