#include "query/formula_builder.h"

#include <gtest/gtest.h>

#include "office/office_db.h"
#include "query/parser.h"
#include "query/path_walker.h"

namespace lyric {
namespace {

class FormulaBuilderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ids = office::BuildOfficeDatabase(&db_);
    ASSERT_TRUE(ids.ok()) << ids.status();
    ids_ = *ids;
    declared_ = {"X", "E", "D", "L", "N"};
    // Bind E to the desk extent with its schema dim context, as the path
    // walker would.
    binding_.vars["X"] = ids_.standard_desk;
    Value ext = db_.GetAttribute(ids_.standard_desk, "extent").value();
    binding_.vars["E"] = ext.scalar();
    binding_.cst_dims["E"] = {
        {"w", "standard_desk.w"}, {"z", "standard_desk.z"}};
    Value tr = db_.GetAttribute(ids_.standard_desk, "translation").value();
    binding_.vars["D"] = tr.scalar();
    binding_.cst_dims["D"] = {
        {"w", "standard_desk.w"}, {"z", "standard_desk.z"},
        {"x", "standard_desk.x"}, {"y", "standard_desk.y"},
        {"u", "standard_desk.u"}, {"v", "standard_desk.v"}};
    binding_.vars["N"] = Oid::Int(3);
  }

  DisjunctiveExistential Build(const std::string& text) {
    ast::Formula f = ParseFormula(text).value();
    FormulaBuilder fb(&db_, &declared_);
    auto r = fb.Build(f, binding_);
    EXPECT_TRUE(r.ok()) << text << " -> " << r.status();
    return r.ok() ? *r : DisjunctiveExistential();
  }

  Status BuildError(const std::string& text) {
    ast::Formula f = ParseFormula(text).value();
    FormulaBuilder fb(&db_, &declared_);
    return fb.Build(f, binding_).status();
  }

  Database db_;
  office::OfficeIds ids_;
  std::set<std::string> declared_;
  Binding binding_;
};

TEST_F(FormulaBuilderTest, PlainAtom) {
  auto de = Build("x + y <= 3");
  Assignment in{{Variable::Intern("x"), Rational(1)},
                {Variable::Intern("y"), Rational(1)}};
  Assignment out{{Variable::Intern("x"), Rational(2)},
                 {Variable::Intern("y"), Rational(2)}};
  EXPECT_TRUE(de.EvalFree(in).value());
  EXPECT_FALSE(de.EvalFree(out).value());
}

TEST_F(FormulaBuilderTest, BoundQueryVarIsConstant) {
  // N is bound to 3: "x <= N" means x <= 3.
  auto de = Build("x <= N");
  EXPECT_TRUE(de.EvalFree({{Variable::Intern("x"), Rational(3)}}).value());
  EXPECT_FALSE(de.EvalFree({{Variable::Intern("x"), Rational(4)}}).value());
}

TEST_F(FormulaBuilderTest, PathValuedConstant) {
  // 2 * N + 1 = 7.
  auto de = Build("x = 2 * N + 1");
  EXPECT_TRUE(de.EvalFree({{Variable::Intern("x"), Rational(7)}}).value());
}

TEST_F(FormulaBuilderTest, NonLinearProductRejected) {
  EXPECT_TRUE(BuildError("x * y <= 1").IsTypeError());
  EXPECT_TRUE(BuildError("x / y <= 1").IsTypeError());
  // Division by constant zero.
  EXPECT_TRUE(BuildError("x / 0 <= 1").IsArithmeticError());
  // Constant * var is fine.
  EXPECT_TRUE(Build("3 * x <= 6").Satisfiable().value());
}

TEST_F(FormulaBuilderTest, NonNumericQueryVarRejected) {
  // X is bound to an object oid, not a number.
  EXPECT_TRUE(BuildError("x <= X").IsTypeError());
}

TEST_F(FormulaBuilderTest, BarePredicateUsesSchemaNames) {
  auto de = Build("E and w >= 4");
  // extent w in [-4,4]: only w = 4 stays.
  EXPECT_TRUE(de.EvalFree({{Variable::Intern("w"), Rational(4)},
                           {Variable::Intern("z"), Rational(0)}})
                  .value());
  EXPECT_FALSE(de.EvalFree({{Variable::Intern("w"), Rational(5)},
                            {Variable::Intern("z"), Rational(0)}})
                   .value());
}

TEST_F(FormulaBuilderTest, ExplicitArgsRenameDims) {
  auto de = Build("E(a, b) and a >= 4");
  EXPECT_TRUE(de.EvalFree({{Variable::Intern("a"), Rational(4)},
                           {Variable::Intern("b"), Rational(0)}})
                  .value());
}

TEST_F(FormulaBuilderTest, ArityMismatchRejected) {
  EXPECT_TRUE(BuildError("E(a, b, c)").IsTypeError());
  EXPECT_TRUE(BuildError("E(a)").IsTypeError());
}

TEST_F(FormulaBuilderTest, RepeatedInvocationVarsMeanEquality) {
  // E(t, t): the square's diagonal within the extent box. The helper
  // that carries the second t is bound, so t is the only free variable.
  auto de = Build("E(t, t)");
  EXPECT_EQ(de.FreeVars(), VarSet{Variable::Intern("t")});
  EXPECT_TRUE(de.EvalFree({{Variable::Intern("t"), Rational(2)}}).value());
  EXPECT_FALSE(de.EvalFree({{Variable::Intern("t"), Rational(3)}}).value());
}

TEST_F(FormulaBuilderTest, ImplicitEqualityAcrossSharedIdentity) {
  // E renamed to fresh names but sharing identity with bare D: the
  // identity-based equality w=a, z=b must link them. D's (w, z) dims and
  // E(a, b) share identities standard_desk.w / standard_desk.z.
  auto de = Build("E(a, b) and D and u = x + 100");
  // In D, u = x + w; forcing u = x + 100 makes w = 100, which by identity
  // equality a = w escapes E's [-4, 4] bound -> unsatisfiable.
  EXPECT_FALSE(de.Satisfiable().value());
}

TEST_F(FormulaBuilderTest, ProjectionKeepsOnlyListedVars) {
  ast::Formula f = ParseFormula("((w) | E and z >= 0)").value();
  FormulaBuilder fb(&db_, &declared_);
  CstObject obj = fb.BuildProjectionObject(f, binding_, true).value();
  EXPECT_EQ(obj.Dimension(), 1u);
  EXPECT_TRUE(obj.Contains({Rational(-4)}).value());
  EXPECT_FALSE(obj.Contains({Rational(5)}).value());
}

TEST_F(FormulaBuilderTest, LazyProjectionSameSemantics) {
  ast::Formula f = ParseFormula("((w) | E and z >= 0)").value();
  FormulaBuilder fb(&db_, &declared_);
  CstObject eager = fb.BuildProjectionObject(f, binding_, true).value();
  CstObject lazy = fb.BuildProjectionObject(f, binding_, false).value();
  EXPECT_TRUE(eager.EquivalentTo(lazy).value());
  EXPECT_EQ(lazy.Family(), ConstraintFamily::kExistentialConjunctive);
}

TEST_F(FormulaBuilderTest, NotOnConjunctiveOnly) {
  EXPECT_TRUE(Build("not (w >= 5)").Satisfiable().value());
  // NOT of a disjunction is rejected (§3.1 negates conjunctive only).
  EXPECT_TRUE(BuildError("not (w >= 5 or w <= -5)").IsTypeError());
}

TEST_F(FormulaBuilderTest, UnboundCstVarRejected) {
  EXPECT_TRUE(BuildError("L and x >= 0").IsInvalidArgument());
}

TEST_F(FormulaBuilderTest, TrueAndFalseLiterals) {
  EXPECT_TRUE(Build("true").Satisfiable().value());
  EXPECT_FALSE(Build("false").Satisfiable().value());
}

TEST_F(FormulaBuilderTest, ExistsQuantifiesVariables) {
  // exists h . (x = 2h and 0 <= h <= 1) == x in [0, 2].
  auto de = Build("exists h . (x = 2 * h and 0 <= h and h <= 1)");
  EXPECT_EQ(de.FreeVars(), VarSet{Variable::Intern("x")});
  EXPECT_TRUE(de.EvalFree({{Variable::Intern("x"), Rational(2)}}).value());
  EXPECT_TRUE(
      de.EvalFree({{Variable::Intern("x"), Rational(1, 3)}}).value());
  EXPECT_FALSE(de.EvalFree({{Variable::Intern("x"), Rational(3)}}).value());
}

TEST_F(FormulaBuilderTest, ExistsOverPredicate) {
  // exists z . E : the w-shadow of the extent.
  auto de = Build("exists z . (E)");
  EXPECT_EQ(de.FreeVars(), VarSet{Variable::Intern("w")});
  EXPECT_TRUE(de.EvalFree({{Variable::Intern("w"), Rational(4)}}).value());
  EXPECT_FALSE(de.EvalFree({{Variable::Intern("w"), Rational(5)}}).value());
}

TEST_F(FormulaBuilderTest, DisequalityAtomThreads) {
  auto de = Build("E and w != 0");
  EXPECT_TRUE(de.EvalFree({{Variable::Intern("w"), Rational(1)},
                           {Variable::Intern("z"), Rational(0)}})
                  .value());
  EXPECT_FALSE(de.EvalFree({{Variable::Intern("w"), Rational(0)},
                            {Variable::Intern("z"), Rational(0)}})
                   .value());
}

}  // namespace
}  // namespace lyric
