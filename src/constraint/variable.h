// Interned constraint variables.
//
// Constraint variables ("x", "y", "w1", ...) appear in CST attributes, in
// class interfaces, and in query formulas. They are interned into small
// integer ids so that linear expressions can keep their terms in one
// vector sorted by id, and so that variable identity is exact string
// identity (the paper's implicit schema-derived equalities rely on this:
// two attributes sharing the variable name `w` share the variable).

#ifndef LYRIC_CONSTRAINT_VARIABLE_H_
#define LYRIC_CONSTRAINT_VARIABLE_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace lyric {

/// Dense id of an interned variable.
using VarId = uint32_t;

/// A set of variable ids, ordered for deterministic iteration.
using VarSet = std::set<VarId>;

/// Process-wide variable interner. Thread-safe: concurrent queries intern
/// query and freshened-bound variables from their own threads. Fresh()
/// ids depend on call order and are therefore not deterministic across
/// schedules — nothing rendered to users may depend on a fresh id's
/// spelling (CstObject::CanonicalString renames bound variables by first
/// occurrence for exactly this reason).
class Variable {
 public:
  /// Returns the id for `name`, interning it on first use.
  static VarId Intern(const std::string& name);

  /// Returns the name of an interned id.
  static const std::string& Name(VarId id);

  /// Returns a fresh variable guaranteed distinct from every variable
  /// interned so far, with a name derived from `hint` (e.g. "x$17").
  /// Used to rename quantified variables apart.
  static VarId Fresh(const std::string& hint);

  /// Number of variables interned so far (diagnostic).
  static size_t Count();

 private:
  Variable() = delete;
};

/// Renders a VarSet as "{x, y, z}".
std::string VarSetToString(const VarSet& vars);

}  // namespace lyric

#endif  // LYRIC_CONSTRAINT_VARIABLE_H_
