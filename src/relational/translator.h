// Translation of LyriC queries into flat constraint-relational plans —
// the §5 construction that yields PTIME data complexity.
//
// "We first flatten all path expressions into a single level by the
// addition of class names and variables in the FROM clause. Thus, the
// language is equivalent to SQL with linear constraints and hence has a
// PTIME data complexity."
//
// Scope: the translator covers the conjunctive core of LyriC that the
// paper's own example queries use —
//   * FROM items over classes;
//   * a WHERE conjunction of: path predicates (any depth; translated to
//     equi-joins on the per-class relations), comparisons of a path with
//     a literal or another path, SAT(phi), and phi |= psi where phi, psi
//     are conjunctive formulas whose predicate uses carry explicit
//     dimension variables (the flat form has no schema-name context);
//   * SELECT of query variables, terminal paths, and projection formulas.
// Disjunctive WHERE branches, NOT, bare predicate uses, and views are the
// evaluator's territory; the translator reports NotImplemented for them.

#ifndef LYRIC_RELATIONAL_TRANSLATOR_H_
#define LYRIC_RELATIONAL_TRANSLATOR_H_

#include "query/ast.h"
#include "relational/flat_algebra.h"
#include "relational/flatten.h"

namespace lyric {

/// Executes LyriC queries against a flattened database.
class FlatTranslator {
 public:
  /// `flat` must outlive the translator; `db` receives interned CST
  /// objects created by SELECT projection formulas (it is the same
  /// database `flat` was built from).
  FlatTranslator(const FlatDatabase* flat, Database* db)
      : flat_(flat), db_(db) {}

  /// Parses and executes.
  Result<FlatRelation> Execute(const std::string& query_text);

 private:
  struct TranslationState;

  Status ProcessFrom(const ast::Query& query, TranslationState* st) const;
  Status ProcessWhere(const ast::WhereExpr& where, TranslationState* st) const;
  // Translates a path to joins; returns the terminal column name.
  Result<std::string> ProcessPath(const ast::PathExpr& path,
                                  TranslationState* st) const;
  // Extracts a conjunctive formula into CST column uses + plain atoms.
  Status ExtractFormula(const ast::Formula& f, const TranslationState& st,
                        std::vector<CstColumnUse>* uses,
                        Conjunction* extra) const;
  Result<LinearExpr> ExtractArith(const ast::ArithExpr& e) const;

  const FlatDatabase* flat_;
  Database* db_;
};

}  // namespace lyric

#endif  // LYRIC_RELATIONAL_TRANSLATOR_H_
