// Abstract syntax of LyriC queries (§4.2 on top of the XSQL core of §2.2).
//
// A query is
//
//   [CREATE VIEW name AS SUBCLASS OF parent [SIGNATURE a => C, b =>> D]]
//   SELECT item, ...
//   FROM Class Var, ...
//   [OID FUNCTION OF Var, ...]
//   [WHERE condition]
//
// Select items are path expressions, projection formulas
// ((x1,..,xn) | phi) creating new CST objects, or optimization operators
// MAX/MIN/MAX_POINT/MIN_POINT(f SUBJECT TO ((x..) | phi)). WHERE
// conditions combine path-expression predicates, comparisons, the
// satisfiability predicate SAT(phi) (the paper writes a bare
// parenthesized formula), and the entailment predicate phi |= psi.

#ifndef LYRIC_QUERY_AST_H_
#define LYRIC_QUERY_AST_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "object/oid.h"

namespace lyric {
namespace ast {

/// An identifier whose meaning (query variable vs. symbolic oid vs.
/// attribute name) the analyzer resolves, or an already-lexed literal.
struct NameOrLiteral {
  enum class Kind { kName, kLiteral };
  Kind kind = Kind::kName;
  std::string name;
  Oid literal;
  size_t offset = 0;  // Byte offset of the token in the query text.

  static NameOrLiteral Name(std::string n) {
    NameOrLiteral out;
    out.kind = Kind::kName;
    out.name = std::move(n);
    return out;
  }
  static NameOrLiteral Lit(Oid oid) {
    NameOrLiteral out;
    out.kind = Kind::kLiteral;
    out.literal = std::move(oid);
    return out;
  }
};

/// selector0.Attr1[sel1].Attr2[sel2]... (§2.2). The head is a g-selector
/// (oid) or a v-selector (variable); each step names an attribute (or an
/// attribute variable) with an optional selector binding the object at
/// that position.
struct PathExpr {
  NameOrLiteral head;
  struct Step {
    std::string attribute;  // Attribute name or attribute variable.
    std::optional<NameOrLiteral> selector;
    size_t offset = 0;  // Byte offset of the attribute token.
  };
  std::vector<Step> steps;
  size_t offset = 0;  // Byte offset of the head token.

  std::string ToString() const;
};

/// Pseudo-linear arithmetic expressions (§4.2): constants, constraint
/// variables, path expressions denoting numbers, negation, and n-ary sums
/// and products, linear once paths are instantiated.
///
/// A chain `a - b + c` is one kSum node and `a * b / c` one kProduct node
/// with operands [a, b, c], folded left to right: each operand's `op` is
/// the operator joining it to the operands before it ('+' or '-' in a
/// sum, '*' or '/' in a product; the first operand has '+' or '*'). A
/// parenthesized chain is a single operand. Walkers therefore loop over a
/// chain, and an expression nests only as deep as the parser's nesting
/// bound, however long its chains are.
struct ArithExpr {
  enum class Kind { kConst, kName, kPath, kNeg, kSum, kProduct };
  Kind kind = Kind::kConst;
  char op = 0;                           // Operand of a kSum / kProduct.
  Rational constant;                     // kConst
  std::string name;                      // kName (constraint or query variable)
  std::shared_ptr<const PathExpr> path;  // kPath
  std::vector<ArithExpr> operands;       // kNeg: one; kSum / kProduct: 2+.
  size_t offset = 0;  // Byte offset of the expression's first token.

  /// Fully parenthesized text, e.g. "((1 + 2) - x)".
  std::string ToString() const;
  /// The text of the chain of this kSum / kProduct's first `n` operands.
  std::string PrefixToString(size_t n) const;
};

/// CST formulas: atoms, boolean structure, CST-object predicate uses, and
/// the projection connector.
struct Formula {
  enum class Kind {
    kAtom, kAnd, kOr, kNot, kPred, kProject, kTrue, kFalse,
    kExists,  // exists v1, v2 . (phi) — dual of kProject: lists the
              // quantified variables instead of the kept ones.
  };
  Kind kind = Kind::kTrue;

  // kAtom: lhs relop rhs.
  std::unique_ptr<ArithExpr> atom_lhs;
  std::unique_ptr<ArithExpr> atom_rhs;
  std::string relop;  // "=", "!=", "<=", "<", ">=", ">"

  // kAnd / kOr: children; kNot / kProject: children[0].
  std::vector<std::unique_ptr<Formula>> children;

  // kPred: a CST object used as an interpreted predicate — named by a
  // query variable or a path expression, with optional explicit dimension
  // variables O(x1,...,xn); without them the schema names apply (§4.2).
  std::unique_ptr<PathExpr> pred;
  std::optional<std::vector<std::string>> pred_args;

  // kProject: ((proj_vars) | children[0]); kExists: the bound variables.
  std::vector<std::string> proj_vars;

  size_t offset = 0;  // Byte offset of the formula's first token.

  std::string ToString() const;
};

/// One SELECT output column.
struct SelectItem {
  std::optional<std::string> name;  // SELECT name = expr.
  enum class Kind { kPath, kFormulaObject, kOptimize };
  Kind kind = Kind::kPath;

  PathExpr path;  // kPath

  // kFormulaObject: a projection formula creating a CST object.
  std::unique_ptr<Formula> formula;

  // kOptimize: MAX/MIN/MAX_POINT/MIN_POINT(objective SUBJECT TO formula).
  enum class OptKind { kMax, kMin, kMaxPoint, kMinPoint };
  OptKind opt = OptKind::kMax;
  std::unique_ptr<ArithExpr> objective;  // Formula in `formula`.

  size_t offset = 0;  // Byte offset of the item's first token.
};

/// FROM Class Var.
struct FromItem {
  std::string class_name;
  std::string var;
  size_t class_offset = 0;  // Byte offset of the class-name token.
  size_t var_offset = 0;    // Byte offset of the variable token.
};

/// WHERE condition tree.
struct WhereExpr {
  enum class Kind {
    kAnd, kOr, kNot,
    kPathPred,   // A path expression used as a boolean predicate.
    kCompare,    // path/literal (=|!=|<|<=|>|>=|CONTAINS) path/literal.
    kFormulaSat, // SAT(phi).
    kEntails,    // phi |= psi.
  };
  Kind kind = Kind::kAnd;
  std::vector<std::unique_ptr<WhereExpr>> children;

  PathExpr path;  // kPathPred.

  struct Operand {
    enum class Kind { kPath, kLiteral } kind = Kind::kLiteral;
    PathExpr path;
    Oid literal;
  };
  Operand cmp_lhs, cmp_rhs;  // kCompare.
  std::string cmp_op;

  std::unique_ptr<Formula> formula;   // kFormulaSat.
  std::unique_ptr<Formula> ent_lhs;   // kEntails.
  std::unique_ptr<Formula> ent_rhs;

  size_t offset = 0;  // Byte offset of the condition's first token.
};

/// SIGNATURE attr => Class (scalar) / attr =>> Class (set-valued).
struct SignatureItem {
  std::string attr;
  bool set_valued = false;
  std::string target_class;
  size_t target_offset = 0;  // Byte offset of the target-class token.
};

/// A full query (optionally a view definition).
struct Query {
  std::vector<SelectItem> select;
  std::vector<FromItem> from;
  std::unique_ptr<WhereExpr> where;          // May be null.
  std::vector<std::string> oid_function_of;  // Empty = plain result.
  std::vector<size_t> oid_function_of_offsets;  // Parallel byte offsets.

  bool is_view = false;
  std::string view_name;    // May be a query variable (higher-order view).
  std::string view_parent;  // SUBCLASS OF.
  std::vector<SignatureItem> signature;
  size_t view_name_offset = 0;    // Byte offset of the view-name token.
  size_t view_parent_offset = 0;  // Byte offset of the parent token.
};

}  // namespace ast
}  // namespace lyric

#endif  // LYRIC_QUERY_AST_H_
