// The constraint object base: class extents, attribute storage, and the
// CST store.
//
// Following the model theory of §3.2, a database is a general structure:
// a mapping from oids to classes and attribute values, plus the mapping
// from CST oids to the point sets they denote. The CST store interns
// constraint objects by canonical form, so two attribute writes of
// equivalent-up-to-canonical-form constraints share one oid.
//
// Every mutator also keeps the class extents current and appends the
// records it touched to a change set, which the paged store applies to
// write exactly those records (storage/paged_store.h).

#ifndef LYRIC_OBJECT_DATABASE_H_
#define LYRIC_OBJECT_DATABASE_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "constraint/cst_object.h"
#include "object/method.h"
#include "object/schema.h"
#include "object/value.h"
#include "util/sync.h"

namespace lyric {

/// A stored object: its class and attribute values.
struct ObjectRecord {
  std::string class_name;
  std::map<std::string, Value> attrs;
};

/// One record a mutator touched. The store renders the record from the
/// database as it stands when the change set is applied.
struct Change {
  enum class Kind {
    kClass,         ///< class `name` registered
    kObject,        ///< object `oid` inserted
    kAttribute,     ///< attribute `name` of `oid` set or cleared
    kInstanceOf,    ///< fact "`oid` is an instance of `name`" added
    kDeleteObject,  ///< object `oid` deleted, with its attributes and facts
  };
  Kind kind;
  Oid oid;
  std::string name;
};

/// The changes made since the change set was last taken, in mutation
/// order.
using ChangeSet = std::vector<Change>;

/// An object-oriented constraint database instance over a Schema.
class Database {
 public:
  Database() = default;

  /// Classes are registered through AddClass, so that the change set
  /// sees every one.
  const Schema& schema() const { return schema_; }

  /// Registers a class (Schema::AddClass).
  Status AddClass(ClassDef def);

  MethodRegistry& methods() { return methods_; }
  const MethodRegistry& methods() const { return methods_; }

  /// Resolves and invokes a method on `self` (polymorphic dispatch over
  /// the receiver's class and argument classes, §2.1), checking the
  /// result against the matched signature.
  Result<Value> InvokeMethod(const Oid& self, const std::string& name,
                             const std::vector<Oid>& args);

  /// The dynamic class of any oid: stored objects report their class,
  /// literals their primitive class, CST oids "CST(n)". NotFound for
  /// unmanaged symbols.
  Result<std::string> DynamicClassOf(const Oid& oid) const;

  /// Creates an object of `class_name` identified by `oid`.
  Status Insert(const Oid& oid, const std::string& class_name);

  /// Declares `oid` (typically a CST oid) an instance of an additional
  /// class — the mechanism behind CREATE VIEW ... AS SUBCLASS and behind
  /// user CST subclasses such as Region <= CST(2).
  Status AddInstanceOf(const Oid& oid, const std::string& class_name);

  /// Sets an attribute value, checking the signature: the attribute must
  /// exist on the object's class, scalar/set-ness must match, and every
  /// element must be an instance of the target class (CST attributes
  /// additionally check dimension).
  Status SetAttribute(const Oid& oid, const std::string& attr, Value value);

  /// Convenience: stores a CST object into a CST attribute (interning it
  /// first) and returns its oid.
  Result<Oid> SetCstAttribute(const Oid& oid, const std::string& attr,
                              const CstObject& value);

  Result<Value> GetAttribute(const Oid& oid, const std::string& attr) const;

  /// Removes an attribute value ("there is no reason that moving a desk
  /// would be limited in any way" — §6 on fully general CST updates).
  Status ClearAttribute(const Oid& oid, const std::string& attr);

  /// Deletes an object. Fails with InvalidArgument when another object
  /// still references it through an attribute, unless `force` (then the
  /// referencing attribute values are cleared).
  Status DeleteObject(const Oid& oid, bool force = false);
  bool HasObject(const Oid& oid) const { return objects_.count(oid) > 0; }
  Result<std::string> ClassOf(const Oid& oid) const;

  /// Interns a CST object by canonical form and returns its oid.
  /// Thread-safe, and order-independent: the oid IS the canonical form, so
  /// concurrent interleavings produce identical oids and an identical
  /// store (concurrent queries intern freely).
  Result<Oid> InternCst(const CstObject& obj) LYRIC_EXCLUDES(*cst_mu_);
  /// The CST object denoted by a CST oid. Thread-safe against InternCst.
  Result<CstObject> GetCst(const Oid& oid) const LYRIC_EXCLUDES(*cst_mu_);

  /// Is `oid` an instance of `class_name`? Covers literals (20 : int),
  /// CST oids (dimension n : CST(n) : CST), stored objects (via IS-A),
  /// and extra instance-of declarations.
  bool InstanceOf(const Oid& oid, const std::string& class_name) const;

  /// All objects whose class IS-A `class_name` (the class extent), read
  /// from the maintained index: stored objects by oid, then oids that
  /// are members only through instance-of facts by oid, then for CST and
  /// CST(n) the remaining CST-store oids in canonical order.
  std::vector<Oid> Extent(const std::string& class_name) const;

  /// All stored oids in deterministic order.
  std::vector<Oid> AllObjects() const;

  /// Read access to the full object store (serialization, debugging).
  const std::map<Oid, ObjectRecord>& objects() const { return objects_; }
  /// Read access to the extra instance-of facts.
  const std::map<Oid, std::vector<std::string>>& extra_instance_of() const {
    return extra_classes_;
  }

  size_t ObjectCount() const { return objects_.size(); }
  size_t CstCount() const LYRIC_EXCLUDES(*cst_mu_);

  /// Returns the records touched since the last call, in mutation
  /// order, and starts an empty change set. The set grows with every
  /// mutation until taken; a caller that never persists the database
  /// may take and drop it.
  ChangeSet TakeChanges() { return std::exchange(changes_, {}); }

  /// Full integrity sweep: every stored attribute conforms to its
  /// signature, every referenced oid exists where the signature demands
  /// an object class. Returns the first violation.
  Status CheckIntegrity() const;

 private:
  Status CheckValueAgainst(const AttributeDef& attr, const Value& value) const;

  Schema schema_;
  MethodRegistry methods_;
  std::map<Oid, ObjectRecord> objects_;
  // Guards cst_store_ only: CST interning is the one database write a
  // read query performs (via SELECT construction and the builtin CST
  // methods), so concurrent read queries share it; schema mutations are
  // serialized by the caller (lyric_serverd's exclusive schema gate).
  // Held by pointer so Database remains movable (sync::Mutex, like
  // std::mutex, is not).
  std::unique_ptr<sync::Mutex> cst_mu_ =
      std::make_unique<sync::Mutex>(sync::LockRank::kCstStore, "cst_store");
  std::map<std::string, CstObject> cst_store_
      LYRIC_GUARDED_BY(*cst_mu_);  // canonical -> object
  // Extra instance-of facts (oid may appear for several classes).
  std::map<Oid, std::vector<std::string>> extra_classes_;
  // The class extents: for each class C, the stored objects whose class
  // IS-A C, and the oids with an instance-of fact whose class IS-A C.
  // Only the mutators write them; a server runs those under its
  // exclusive schema gate, so read queries use the index without a lock.
  std::map<std::string, std::set<Oid>> stored_extent_;
  std::map<std::string, std::set<Oid>> fact_extent_;
  ChangeSet changes_;
};

}  // namespace lyric

#endif  // LYRIC_OBJECT_DATABASE_H_
