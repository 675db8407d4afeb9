// The LyriC database schema: classes, IS-A, attribute signatures, and the
// variable-interface mechanism of §3.2.
//
// A class may declare an ordered *interface* of constraint variables
// (written `Drawer (x, y)` in Figure 1): the variables through which
// objects referencing an instance may constrain it. An attribute can be:
//
//   * a scalar/set attribute over an object class, optionally *renaming*
//     the target's interface (`drawer : (p, q)` invokes Drawer's (x, y)
//     interface as (p, q) in the referencing class's namespace);
//   * a CST attribute (`extent : CST(w, z)`) holding a constraint object
//     whose dimensions are bound to the listed schema variables — two
//     attributes listing the same variable are implicitly equated when
//     they meet inside one constraint formula of a query;
//   * a primitive attribute over `int`, `real`, `string`, or `bool`.

#ifndef LYRIC_OBJECT_SCHEMA_H_
#define LYRIC_OBJECT_SCHEMA_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "util/result.h"

namespace lyric {

/// Built-in class names.
inline constexpr const char* kIntClass = "int";
inline constexpr const char* kRealClass = "real";
inline constexpr const char* kStringClass = "string";
inline constexpr const char* kBoolClass = "bool";
inline constexpr const char* kCstClass = "CST";

/// Returns "CST(n)" — the per-dimension CST class name.
std::string CstClassName(size_t dimension);
/// Parses "CST(n)"; nullopt if `name` is not of that form.
std::optional<size_t> ParseCstClassName(const std::string& name);

/// One attribute signature within a class.
struct AttributeDef {
  std::string name;
  /// Double arrow in the paper's signatures (set-valued) vs single arrow.
  bool set_valued = false;
  /// Target class: an object class, a primitive, or kCstClass.
  std::string target_class;
  /// For CST attributes: the schema variables bound to the object's
  /// dimensions, e.g. {"w","z"} for `extent : CST(w,z)`. For object-class
  /// targets: the interface renaming, e.g. {"p","q"} for `drawer : (p,q)`
  /// (empty = use the target class's own interface names).
  std::vector<std::string> variables;

  bool IsCst() const { return target_class == kCstClass; }
};

/// A class definition.
struct ClassDef {
  std::string name;
  /// The externally constrainable variable interface (may be empty).
  std::vector<std::string> interface_vars;
  /// Direct superclasses (IS-A).
  std::vector<std::string> parents;
  std::vector<AttributeDef> attributes;
};

/// The schema: a set of class definitions closed under IS-A.
class Schema {
 public:
  Schema();

  /// Registers a class. Validates: unique name, existing parents, acyclic
  /// IS-A (parents must already exist, so cycles are impossible), known
  /// attribute target classes, interface-renaming arity. Computes the
  /// class's ancestor set once, from its parents' sets.
  Status AddClass(ClassDef def);

  bool HasClass(const std::string& name) const;
  /// The definition of `name` (built-ins included). Safe to call from
  /// concurrent readers, built-ins included.
  Result<const ClassDef*> GetClass(const std::string& name) const;

  /// Reflexive-transitive IS-A test, a lookup in the ancestor sets.
  /// "int" IS-A "real"; "CST(n)" IS-A "CST" for every n.
  bool IsSubclass(const std::string& sub, const std::string& super) const;

  /// Every class `name` IS-A, itself included.
  std::set<std::string> Ancestors(const std::string& name) const;

  /// Looks up `attr` on `class_name`, walking up the IS-A hierarchy
  /// (inheritance, §2.1).
  Result<const AttributeDef*> FindAttribute(const std::string& class_name,
                                            const std::string& attr) const;

  /// All attributes visible on a class (inherited included; an attribute
  /// redefined lower shadows the inherited one).
  Result<std::vector<const AttributeDef*>> AllAttributes(
      const std::string& class_name) const;

  /// Direct and transitive subclasses of `name` that are defined classes.
  std::vector<std::string> SubclassesOf(const std::string& name) const;

  /// Every user-defined class name, in registration order.
  const std::vector<std::string>& ClassNames() const { return order_; }

  /// Is `name` one of the primitive classes?
  static bool IsPrimitive(const std::string& name);

 private:
  std::map<std::string, ClassDef> classes_;
  std::vector<std::string> order_;
  // Defined class -> every class it IS-A, itself and built-ins included.
  std::map<std::string, std::set<std::string>> ancestors_;
};

}  // namespace lyric

#endif  // LYRIC_OBJECT_SCHEMA_H_
