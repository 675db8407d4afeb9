#include "query/parser.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace lyric {
namespace {

using ast::Formula;
using ast::Query;
using ast::SelectItem;
using ast::WhereExpr;

TEST(ParserTest, MinimalQuery) {
  Query q = ParseQuery("SELECT Y FROM Desk X WHERE X.drawer[Y]").value();
  ASSERT_EQ(q.select.size(), 1u);
  EXPECT_EQ(q.select[0].kind, SelectItem::Kind::kPath);
  EXPECT_EQ(q.select[0].path.ToString(), "Y");
  ASSERT_EQ(q.from.size(), 1u);
  EXPECT_EQ(q.from[0].class_name, "Desk");
  EXPECT_EQ(q.from[0].var, "X");
  ASSERT_NE(q.where, nullptr);
  EXPECT_EQ(q.where->kind, WhereExpr::Kind::kPathPred);
  EXPECT_EQ(q.where->path.ToString(), "X.drawer[Y]");
}

TEST(ParserTest, PathWithLiteralSelector) {
  Query q =
      ParseQuery("SELECT Y FROM Desk X WHERE X.drawer[Y].color['red']")
          .value();
  const auto& steps = q.where->path.steps;
  ASSERT_EQ(steps.size(), 2u);
  EXPECT_EQ(steps[1].attribute, "color");
  ASSERT_TRUE(steps[1].selector.has_value());
  EXPECT_EQ(steps[1].selector->kind, ast::NameOrLiteral::Kind::kLiteral);
  EXPECT_EQ(steps[1].selector->literal, Oid::Str("red"));
}

TEST(ParserTest, ComparisonInWhere) {
  Query q =
      ParseQuery("SELECT X FROM Desk X WHERE X.color = 'red'").value();
  EXPECT_EQ(q.where->kind, WhereExpr::Kind::kCompare);
  EXPECT_EQ(q.where->cmp_op, "=");
  EXPECT_EQ(q.where->cmp_lhs.kind, WhereExpr::Operand::Kind::kPath);
  EXPECT_EQ(q.where->cmp_rhs.kind, WhereExpr::Operand::Kind::kLiteral);
}

TEST(ParserTest, BooleanStructure) {
  Query q = ParseQuery(
                "SELECT X FROM Desk X "
                "WHERE X.a and (X.b or not X.c)")
                .value();
  ASSERT_EQ(q.where->kind, WhereExpr::Kind::kAnd);
  ASSERT_EQ(q.where->children.size(), 2u);
  EXPECT_EQ(q.where->children[1]->kind, WhereExpr::Kind::kOr);
  EXPECT_EQ(q.where->children[1]->children[1]->kind, WhereExpr::Kind::kNot);
}

TEST(ParserTest, ProjectionSelectItem) {
  Query q = ParseQuery(
                "SELECT CO, ((u, v) | E and D and x = 6 and y = 4) "
                "FROM Office_Object CO "
                "WHERE CO.extent[E] and CO.translation[D]")
                .value();
  ASSERT_EQ(q.select.size(), 2u);
  EXPECT_EQ(q.select[1].kind, SelectItem::Kind::kFormulaObject);
  const Formula& f = *q.select[1].formula;
  EXPECT_EQ(f.kind, Formula::Kind::kProject);
  EXPECT_EQ(f.proj_vars, (std::vector<std::string>{"u", "v"}));
  EXPECT_EQ(f.children[0]->kind, Formula::Kind::kAnd);
}

TEST(ParserTest, PredWithExplicitArgs) {
  Formula f = ParseFormula("E(w, z) and D(w, z, x, y, u, v)").value();
  ASSERT_EQ(f.kind, Formula::Kind::kAnd);
  const Formula& e = *f.children[0];
  EXPECT_EQ(e.kind, Formula::Kind::kPred);
  EXPECT_EQ(e.pred->ToString(), "E");
  ASSERT_TRUE(e.pred_args.has_value());
  EXPECT_EQ(*e.pred_args, (std::vector<std::string>{"w", "z"}));
}

TEST(ParserTest, PredViaPathInFormula) {
  Formula f = ParseFormula("DSK.drawer.extent(w, z) and z >= w").value();
  ASSERT_EQ(f.kind, Formula::Kind::kAnd);
  EXPECT_EQ(f.children[0]->kind, Formula::Kind::kPred);
  EXPECT_EQ(f.children[0]->pred->ToString(), "DSK.drawer.extent");
}

TEST(ParserTest, ChainedComparisons) {
  Formula f = ParseFormula("0 <= x <= 10").value();
  ASSERT_EQ(f.kind, Formula::Kind::kAnd);
  ASSERT_EQ(f.children.size(), 2u);
  EXPECT_EQ(f.children[0]->relop, "<=");
  EXPECT_EQ(f.children[1]->relop, "<=");
}

TEST(ParserTest, ParenthesizedArithmeticAtom) {
  Formula f = ParseFormula("(x + y) <= 3").value();
  EXPECT_EQ(f.kind, Formula::Kind::kAtom);
}

TEST(ParserTest, NestedProjectionInFormula) {
  Formula f = ParseFormula("((x) | x <= 1 and y = x)").value();
  EXPECT_EQ(f.kind, Formula::Kind::kProject);
  EXPECT_EQ(f.proj_vars, std::vector<std::string>{"x"});
}

TEST(ParserTest, SatPredicate) {
  Query q = ParseQuery(
                "SELECT O FROM Object_in_Room O "
                "WHERE O.location[L] and SAT(L(x, y) and 0 <= x and x <= 10)")
                .value();
  ASSERT_EQ(q.where->kind, WhereExpr::Kind::kAnd);
  EXPECT_EQ(q.where->children[1]->kind, WhereExpr::Kind::kFormulaSat);
}

TEST(ParserTest, EntailmentPredicate) {
  Query q = ParseQuery(
                "SELECT DSK FROM Desk DSK "
                "WHERE DSK.drawer_center[C] and C(p, q) |= p = 0")
                .value();
  ASSERT_EQ(q.where->kind, WhereExpr::Kind::kAnd);
  const WhereExpr& ent = *q.where->children[1];
  EXPECT_EQ(ent.kind, WhereExpr::Kind::kEntails);
  EXPECT_EQ(ent.ent_lhs->kind, Formula::Kind::kPred);
  EXPECT_EQ(ent.ent_rhs->kind, Formula::Kind::kAtom);
}

TEST(ParserTest, EntailmentBetweenVariables) {
  // The Region view test: U |= X.
  Query q = ParseQuery(
                "SELECT Y FROM Object_in_Room Y, Region X "
                "WHERE Y.location[U] and U |= X")
                .value();
  const WhereExpr& ent = *q.where->children[1];
  EXPECT_EQ(ent.kind, WhereExpr::Kind::kEntails);
  EXPECT_EQ(ent.ent_lhs->pred->ToString(), "U");
  EXPECT_EQ(ent.ent_rhs->pred->ToString(), "X");
}

TEST(ParserTest, MaxSubjectTo) {
  Query q = ParseQuery(
                "SELECT MAX(x + 2 * y SUBJECT TO ((x, y) | E)) "
                "FROM Office_Object CO WHERE CO.extent[E]")
                .value();
  ASSERT_EQ(q.select.size(), 1u);
  EXPECT_EQ(q.select[0].kind, SelectItem::Kind::kOptimize);
  EXPECT_EQ(q.select[0].opt, SelectItem::OptKind::kMax);
  EXPECT_EQ(q.select[0].formula->kind, Formula::Kind::kProject);
}

TEST(ParserTest, NamedSelectItemsAndOidFunction) {
  Query q = ParseQuery(
                "SELECT name = X.name, drawer = W "
                "FROM Office_Object X OID FUNCTION OF X, W "
                "WHERE X.drawer[W]")
                .value();
  EXPECT_EQ(q.select[0].name, "name");
  EXPECT_EQ(q.select[1].name, "drawer");
  EXPECT_EQ(q.oid_function_of, (std::vector<std::string>{"X", "W"}));
}

TEST(ParserTest, CreateViewWithSignature) {
  Query q = ParseQuery(
                "CREATE VIEW Overlap AS SUBCLASS OF Object_in_Room "
                "SELECT first = X, second = Y "
                "SIGNATURE first => Office_Object, second =>> Office_Object "
                "FROM Office_Object X, Office_Object Y "
                "OID FUNCTION OF X, Y "
                "WHERE SAT(U and V) and X.extent[U] and Y.extent[V]")
                .value();
  EXPECT_TRUE(q.is_view);
  EXPECT_EQ(q.view_name, "Overlap");
  EXPECT_EQ(q.view_parent, "Object_in_Room");
  ASSERT_EQ(q.signature.size(), 2u);
  EXPECT_FALSE(q.signature[0].set_valued);
  EXPECT_TRUE(q.signature[1].set_valued);
}

TEST(ParserTest, CstClassNameInFrom) {
  Query q = ParseQuery("SELECT X FROM CST(2) X").value();
  EXPECT_EQ(q.from[0].class_name, "CST(2)");
}

TEST(ParserTest, ErrorsArePositioned) {
  auto r = ParseQuery("SELECT FROM Desk X");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError());
  EXPECT_NE(r.status().message().find("offset"), std::string::npos);
}

TEST(ParserTest, TrailingGarbageRejected) {
  EXPECT_FALSE(ParseQuery("SELECT X FROM Desk X garbage garbage").ok());
}

TEST(ParserTest, SemicolonAccepted) {
  EXPECT_TRUE(ParseQuery("SELECT X FROM Desk X;").ok());
}

TEST(ParserTest, OrOfFormulasInsideSat) {
  Query q = ParseQuery(
                "SELECT X FROM Desk X WHERE SAT(x <= 1 or x >= 5)")
                .value();
  EXPECT_EQ(q.where->formula->kind, Formula::Kind::kOr);
}

TEST(ParserTest, ExistsFormula) {
  Formula f = ParseFormula("exists h . (x = 2 * h and 0 <= h and h <= 1)")
                  .value();
  EXPECT_EQ(f.kind, Formula::Kind::kExists);
  EXPECT_EQ(f.proj_vars, std::vector<std::string>{"h"});
  EXPECT_EQ(f.children[0]->kind, Formula::Kind::kAnd);
  // Multiple quantified variables.
  Formula g = ParseFormula("exists a, b . (x = a + b)").value();
  EXPECT_EQ(g.proj_vars, (std::vector<std::string>{"a", "b"}));
  // Round-trips through ToString.
  Formula h = ParseFormula(f.ToString()).value();
  EXPECT_EQ(h.kind, Formula::Kind::kExists);
}

TEST(ParserTest, ExistsInsideConjunction) {
  Formula f =
      ParseFormula("x >= 0 and exists h . (x = 2 * h)").value();
  ASSERT_EQ(f.kind, Formula::Kind::kAnd);
  EXPECT_EQ(f.children[1]->kind, Formula::Kind::kExists);
}

TEST(ParserTest, DisequalityAtom) {
  Formula f = ParseFormula("x != 3").value();
  EXPECT_EQ(f.kind, Formula::Kind::kAtom);
  EXPECT_EQ(f.relop, "!=");
}

TEST(ParserTest, PaperQueryThreeShape) {
  // The big drawer-area query of §4.1 parses end to end.
  const char* text =
      "SELECT O, ((u, v) | D(w, z, x, y, u, v) and "
      "  DD(w1, z1, x1, y1, u1, v1) and w = u1 and z = v1 and "
      "  DC(p, q) and DE(w1, z1) and L(x, y)) "
      "FROM Object_in_Room O, Desk DSK "
      "WHERE O.location[L] and O.catalog_object[DSK] and "
      "  SAT(L(x, y) and 0 <= x and x <= 10 and 5 <= y and y <= 10) and "
      "  DSK.translation[D] and DSK.drawer_center[DC] and "
      "  DSK.drawer.translation[DD] and DSK.drawer.extent[DE]";
  auto q = ParseQuery(text);
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->select.size(), 2u);
}

// Nesting bound: a frame of deeply nested input must not overflow the
// parser's stack. Parentheses, `not`, unary minus, `exists` and
// projections nest at most 64 deep, and deeper input fails typed at the
// offset of the level that overflows.
struct NestingShape {
  const char* name;
  bool query;          // ParseQuery (else ParseFormula)
  std::string prefix;  // text before the first level
  std::string open;    // one level's opener
  std::string core;
  std::string close;   // one level's closer
  std::string suffix;  // text after the last closer
};

std::vector<NestingShape> NestingShapes() {
  const std::string where = "SELECT X FROM Desk X WHERE ";
  return {
      {"arithmetic", false, "x <= ", "(", "1", ")", ""},
      {"unary minus", false, "x <= ", "- ", "1", "", ""},
      {"formula", false, "", "(", "x <= 1", ")", ""},
      {"formula not", false, "", "not ", "x <= 1", "", ""},
      {"exists", false, "", "exists h . ", "x <= h", "", ""},
      {"projection", false, "", "((x) | ", "x <= 1", ")", ""},
      {"WHERE", true, where, "(", "X.color = 'red'", ")", ""},
      {"WHERE not", true, where, "not ", "X.color = 'red'", "", ""},
      {"WHERE SAT", true, where + "SAT(x <= ", "(", "1", ")", ")"},
  };
}

std::string Nest(const NestingShape& shape, int depth) {
  std::string text = shape.prefix;
  for (int i = 0; i < depth; ++i) text += shape.open;
  text += shape.core;
  for (int i = 0; i < depth; ++i) text += shape.close;
  return text + shape.suffix;
}

Status ParseNested(const NestingShape& shape, int depth) {
  const std::string text = Nest(shape, depth);
  return shape.query ? ParseQuery(text).status() : ParseFormula(text).status();
}

TEST(ParserTest, NestingOf64LevelsParses) {
  for (const NestingShape& shape : NestingShapes()) {
    Status st = ParseNested(shape, 64);
    EXPECT_TRUE(st.ok()) << shape.name << ": " << st;
  }
}

TEST(ParserTest, NestingPast64LevelsFailsTypedAtTheOverflow) {
  for (const NestingShape& shape : NestingShapes()) {
    // The 65th level opens right after 64 openers.
    const std::string at =
        "nesting deeper than 64 levels at offset " +
        std::to_string(shape.prefix.size() + 64 * shape.open.size());
    for (int depth : {65, 100000}) {
      Status st = ParseNested(shape, depth);
      EXPECT_TRUE(st.IsParseError()) << shape.name << " x" << depth << ": "
                                     << st;
      EXPECT_NE(st.message().find(at), std::string::npos)
          << shape.name << " x" << depth << ": " << st;
    }
  }
}

TEST(ParserTest, NestingOverflowDiagnosticPointsAtTheLevel) {
  const std::string text = "SELECT X FROM Desk X WHERE " +
                           std::string(100, '(') + "X.color = 'red'" +
                           std::string(100, ')');
  Diagnostic diag;
  ASSERT_FALSE(ParseQuery(text, &diag).ok());
  EXPECT_EQ(diag.span.offset, 27u + 64u);
}

}  // namespace
}  // namespace lyric
