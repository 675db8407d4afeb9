// Set-valued attributes end to end: a File_Cabinet with several drawers,
// each with its own sliding range (the drawer_center* / drawer* pair of
// Figure 1).

#include <gtest/gtest.h>

#include "config/config.h"
#include "office/office_db.h"
#include "query/evaluator.h"

namespace lyric {
namespace {

class CabinetQueriesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ids = office::BuildOfficeDatabase(&db_);
    ASSERT_TRUE(ids.ok()) << ids.status();
    ids_ = *ids;

    cab_ = Oid::Symbol("cab");
    ASSERT_TRUE(db_.Insert(cab_, "File_Cabinet").ok());
    ASSERT_TRUE(db_.SetAttribute(cab_, "name",
                                 Value::Scalar(Oid::Str("cabinet"))).ok());
    ASSERT_TRUE(db_.SetAttribute(cab_, "color",
                                 Value::Scalar(Oid::Str("gray"))).ok());
    ASSERT_TRUE(
        db_.SetCstAttribute(cab_, "extent", office::BoxExtent(1, 3)).ok());
    ASSERT_TRUE(db_.SetCstAttribute(cab_, "translation",
                                    office::StandardTranslation()).ok());
    // Two drawers with distinct colors.
    top_ = Oid::Symbol("cab_top");
    bottom_ = Oid::Symbol("cab_bottom");
    int64_t i = 0;
    for (const Oid& d : {top_, bottom_}) {
      ASSERT_TRUE(db_.Insert(d, "Drawer").ok());
      ASSERT_TRUE(db_.SetAttribute(
                        d, "color",
                        Value::Scalar(Oid::Str(i == 0 ? "red" : "blue")))
                      .ok());
      ASSERT_TRUE(
          db_.SetCstAttribute(d, "extent", office::BoxExtent(1, 1)).ok());
      ASSERT_TRUE(db_.SetCstAttribute(d, "translation",
                                      office::StandardTranslation()).ok());
      ++i;
    }
    ASSERT_TRUE(
        db_.SetAttribute(cab_, "drawer", Value::Set({top_, bottom_})).ok());
    // Two sliding ranges, one per drawer position.
    VarId p1 = Variable::Intern("p1");
    VarId q1 = Variable::Intern("q1");
    auto range = [&](int64_t qlo, int64_t qhi) {
      Conjunction c;
      c.Add(LinearConstraint::Eq(LinearExpr::Var(p1),
                                 LinearExpr::Constant(Rational(0))));
      c.Add(LinearConstraint::Ge(LinearExpr::Var(q1),
                                 LinearExpr::Constant(Rational(qlo))));
      c.Add(LinearConstraint::Le(LinearExpr::Var(q1),
                                 LinearExpr::Constant(Rational(qhi))));
      return CstObject::FromConjunction({p1, q1}, c).value();
    };
    Oid r1 = db_.InternCst(range(1, 2)).value();
    Oid r2 = db_.InternCst(range(-2, -1)).value();
    ASSERT_TRUE(
        db_.SetAttribute(cab_, "drawer_center", Value::Set({r1, r2})).ok());
    ASSERT_TRUE(db_.CheckIntegrity().ok());
  }

  ResultSet Run(const std::string& text) {
    Evaluator ev(&db_, options_);
    auto r = ev.Execute(text);
    EXPECT_TRUE(r.ok()) << text << "\n -> " << r.status();
    return r.ok() ? *r : ResultSet();
  }

  Database db_;
  office::OfficeIds ids_;
  Oid cab_, top_, bottom_;
  // The environment's per-query defaults: the ctest gates that rerun
  // this suite arm LYRIC_RETRY along with their faults.
  const EvalOptions options_ = Config::FromEnv().Eval();
};

TEST_F(CabinetQueriesTest, SetValuedPathEnumerates) {
  ResultSet r = Run("SELECT D FROM File_Cabinet F WHERE F.drawer[D]");
  EXPECT_EQ(r.size(), 2u);
}

TEST_F(CabinetQueriesTest, SelectorFiltersWithinSet) {
  ResultSet red = Run(
      "SELECT D FROM File_Cabinet F WHERE F.drawer[D].color['red']");
  ASSERT_EQ(red.size(), 1u);
  EXPECT_EQ(red.rows()[0][0], top_);
}

TEST_F(CabinetQueriesTest, SetValuedCstAttributeEnumerates) {
  // Each sliding range is a separate binding of C.
  ResultSet r = Run(
      "SELECT C FROM File_Cabinet F WHERE F.drawer_center[C]");
  EXPECT_EQ(r.size(), 2u);
}

TEST_F(CabinetQueriesTest, FormulaOverChosenRange) {
  // Ranges whose whole travel keeps q1 positive: only the top drawer's.
  ResultSet r = Run(
      "SELECT C FROM File_Cabinet F "
      "WHERE F.drawer_center[C] and C(a, b) |= b >= 0");
  EXPECT_EQ(r.size(), 1u);
}

TEST_F(CabinetQueriesTest, SetValuedPredicateWithoutSelectorRejected) {
  // Using the set-valued path directly as a CST predicate is ambiguous.
  Evaluator ev(&db_, options_);
  auto r = ev.Execute(
      "SELECT F FROM File_Cabinet F "
      "WHERE SAT(F.drawer_center(a, b) and a = 0)");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTypeError()) << r.status();
}

TEST_F(CabinetQueriesTest, CountsViaComparison) {
  // CONTAINS on path tail sets: the cabinet's drawers contain the top
  // drawer's singleton set.
  ResultSet r = Run(
      "SELECT F FROM File_Cabinet F, Desk X "
      "WHERE F.drawer contains X.drawer");
  // Desk's drawer (std_drawer) is not among cab's drawers.
  EXPECT_EQ(r.size(), 0u);
  ResultSet r2 = Run(
      "SELECT F FROM File_Cabinet F WHERE F.drawer contains F.drawer");
  EXPECT_EQ(r2.size(), 1u);
}

TEST_F(CabinetQueriesTest, InterfaceRenamingThroughSetAttribute) {
  // drawer : (p1, q1) renames Drawer (x, y); the drawer's translation dims
  // x, y thus carry the cabinet's p1, q1 identities, linking them to the
  // drawer_center use in one formula: with b (= q1 = y1) in [1, 2], the
  // drawer's extent z in [-1, 1] lands v = y1 + z in [0, 3].
  ResultSet r = Run(
      "SELECT F, ((v) | DD(w1, z1, x1, y1, u1, v1) and DE(w1, z1) and "
      "C(a, b) and v = v1) "
      "FROM File_Cabinet F "
      "WHERE F.drawer_center[C] and F.drawer[D] and "
      "D.translation[DD] and D.extent[DE] and C(a, b) |= b >= 1");
  // Only the top range entails b >= 1; two drawers share it -> 2 rows of
  // (F, cst); the cst column differs per drawer? No - both drawers have
  // identical extent/translation, so rows collapse by dedup.
  ASSERT_GE(r.size(), 1u);
  CstObject v_range = db_.GetCst(r.rows()[0][1]).value();
  EXPECT_TRUE(v_range.Contains({Rational(0)}).value());
  EXPECT_TRUE(v_range.Contains({Rational(3)}).value());
  EXPECT_FALSE(v_range.Contains({Rational(4)}).value());
}

}  // namespace
}  // namespace lyric
