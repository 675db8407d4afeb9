// Recursive-descent parser for the LyriC text syntax.
//
// Grammar sketch (see ast.h for the shapes):
//
//   query    := [CREATE VIEW ident AS SUBCLASS OF ident]
//               SELECT item (',' item)*
//               [SIGNATURE attr (=>|=>>) class (',' ...)*]
//               FROM class var (',' class var)*
//               [OID FUNCTION OF var (',' var)*]
//               [WHERE cond]
//   item     := [ident '='] (optimize | projection | path)
//   optimize := (MAX|MIN|MAX_POINT|MIN_POINT) '(' sum SUBJECT TO formula ')'
//   projection := '(' '(' var (',' var)* ')' '|' formula ')'
//   cond     := or-ladder over: SAT '(' formula ')', operand '|=' operand,
//               '(' cond ')', value (relop|CONTAINS) value, path
//   value    := path | literal
//   formula  := or-ladder over: true, false, exists vars '.' primary,
//               projection, '(' formula ')', atom chains (0 <= x <= 10),
//               predicate uses O or O(x1,..,xn) where O is a variable or
//               a path expression
//   operand  := projection | '(' formula ')' | atom chain | predicate use
//   path     := selector ('.' attr ['[' selector ']'])*
//
// Precedence, loosest first, each level written once:
//
//   or-ladder := and-level ('or' and-level)*      (formulas and conds)
//   and-level := not-level ('and' not-level)*
//   not-level := 'not' not-level | primary
//   atom      := sum (relop sum)+                 (= != < <= > >=)
//   sum       := product (('+' | '-') product)*
//   product   := factor (('*' | '/') factor)*
//   factor    := '-' factor | number | '(' sum ')' | path
//
// Each chain is read by a loop into one n-ary node, so a chain of any
// length costs no stack; only nesting does, and parentheses, `not`, unary
// minus, `exists` and projections together nest at most 64 deep.
//
// The parser only moves forward. Every choice is read from tokens not
// yet consumed, using the lexer's pairing of each '(' with its ')':
//   * at a '(' where a formula or |= operand starts, `( ( names ) |`
//     opens a projection; a group followed by a relational or arithmetic
//     operator leads an atom chain; anything else is a parenthesized
//     formula;
//   * a WHERE primary other than SAT is an entailment exactly when '|='
//     comes before the next 'and', 'or', ')', ';' or end at its depth
//     (groups skipped); otherwise '(' opens a parenthesized condition;
//   * CST(n) class names look ahead at '( number )'.
// The first error is the result; nothing is parsed twice.
//
// Keywords are case-insensitive. The paper's bare-parenthesized WHERE
// constraint test is written SAT(...) here; its |= predicate is verbatim.

#ifndef LYRIC_QUERY_PARSER_H_
#define LYRIC_QUERY_PARSER_H_

#include "query/ast.h"
#include "query/diagnostics.h"
#include "query/token.h"
#include "util/result.h"

namespace lyric {

/// Parses one LyriC query (optionally terminated by ';').
Result<ast::Query> ParseQuery(const std::string& text);

/// Like ParseQuery, but on failure also fills `diag` (when non-null) with
/// an LY001/LY002 diagnostic carrying the source span of the offending
/// token — the structured form the lint tools render with carets.
Result<ast::Query> ParseQuery(const std::string& text, Diagnostic* diag);

/// Parses a standalone CST formula — handy for tests and the API.
Result<ast::Formula> ParseFormula(const std::string& text);

/// Parses one formula from a token stream starting at *pos, advancing
/// *pos past it (used by the storage layer to embed constraint bodies in
/// larger grammars). Reads `tokens` in place; they must come from Lex,
/// which ends them with kEnd and pairs the parentheses.
Result<ast::Formula> ParseFormulaPrefix(const std::vector<Token>& tokens,
                                        size_t* pos);

}  // namespace lyric

#endif  // LYRIC_QUERY_PARSER_H_
