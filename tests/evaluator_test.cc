#include "query/evaluator.h"

#include <gtest/gtest.h>

#include "office/office_db.h"

namespace lyric {
namespace {

class EvaluatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ids = office::BuildOfficeDatabase(&db_);
    ASSERT_TRUE(ids.ok()) << ids.status();
    ids_ = *ids;
  }

  ResultSet Run(const std::string& text) {
    Evaluator ev(&db_);
    auto r = ev.Execute(text);
    EXPECT_TRUE(r.ok()) << text << "\n -> " << r.status();
    return r.ok() ? *r : ResultSet();
  }

  Database db_;
  office::OfficeIds ids_;
};

TEST_F(EvaluatorTest, FromEnumeratesExtent) {
  ResultSet r = Run("SELECT X FROM Office_Object X");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.rows()[0][0], ids_.standard_desk);
}

TEST_F(EvaluatorTest, FromSubclassExtent) {
  EXPECT_EQ(Run("SELECT X FROM Desk X").size(), 1u);
  EXPECT_EQ(Run("SELECT X FROM File_Cabinet X").size(), 0u);
  EXPECT_EQ(Run("SELECT X FROM Drawer X").size(), 1u);
}

TEST_F(EvaluatorTest, PathInSelect) {
  ResultSet r = Run("SELECT X.name FROM Desk X");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.rows()[0][0], Oid::Str("standard desk"));
}

TEST_F(EvaluatorTest, MultiStepPathInSelect) {
  ResultSet r = Run("SELECT X.drawer.color FROM Desk X");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.rows()[0][0], Oid::Str("red"));
}

TEST_F(EvaluatorTest, GSelectorHead) {
  // Paths may start at a named object directly.
  ResultSet r = Run("SELECT standard_desk.color FROM Desk X");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.rows()[0][0], Oid::Str("red"));
}

TEST_F(EvaluatorTest, WherePathPredicateBindsVariable) {
  ResultSet r = Run("SELECT Y FROM Desk X WHERE X.drawer[Y]");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.rows()[0][0], ids_.the_drawer);
}

TEST_F(EvaluatorTest, WhereLiteralSelectorFilters) {
  EXPECT_EQ(Run("SELECT Y FROM Desk X WHERE X.drawer[Y].color['red']").size(),
            1u);
  EXPECT_EQ(Run("SELECT Y FROM Desk X WHERE X.drawer[Y].color['blue']").size(),
            0u);
}

TEST_F(EvaluatorTest, WhereComparison) {
  EXPECT_EQ(Run("SELECT X FROM Desk X WHERE X.color = 'red'").size(), 1u);
  EXPECT_EQ(Run("SELECT X FROM Desk X WHERE X.color = 'blue'").size(), 0u);
  EXPECT_EQ(Run("SELECT X FROM Desk X WHERE X.color != 'blue'").size(), 1u);
}

TEST_F(EvaluatorTest, WhereBooleanOps) {
  EXPECT_EQ(Run("SELECT X FROM Desk X "
                "WHERE X.color = 'red' and X.name = 'standard desk'")
                .size(),
            1u);
  EXPECT_EQ(Run("SELECT X FROM Desk X "
                "WHERE X.color = 'blue' or X.name = 'standard desk'")
                .size(),
            1u);
  EXPECT_EQ(Run("SELECT X FROM Desk X WHERE not X.color = 'red'").size(), 0u);
}

TEST_F(EvaluatorTest, SelectCstOidAsLogicalId) {
  // "This query treats CST objects purely as logical oids" (§4.1).
  ResultSet r = Run("SELECT Y FROM Desk X WHERE X.drawer.extent[Y]");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.rows()[0][0].IsCst());
  CstObject obj = db_.GetCst(r.rows()[0][0]).value();
  // The drawer extent is the unit box around the origin.
  EXPECT_TRUE(obj.Contains({Rational(1), Rational(1)}).value());
  EXPECT_FALSE(obj.Contains({Rational(2), Rational(0)}).value());
}

TEST_F(EvaluatorTest, SatisfiabilityPredicate) {
  // my_desk at (6, 4): inside the right half [0,10]x[0,10]? x >= 5 holds.
  EXPECT_EQ(Run("SELECT O FROM Object_in_Room O "
                "WHERE O.location[L] and SAT(L(x, y) and x >= 5)")
                .size(),
            1u);
  EXPECT_EQ(Run("SELECT O FROM Object_in_Room O "
                "WHERE O.location[L] and SAT(L(x, y) and x >= 7)")
                .size(),
            0u);
}

TEST_F(EvaluatorTest, SatisfiabilityWithBareUse) {
  // Bare use pulls schema names (x, y) from the location attribute.
  EXPECT_EQ(Run("SELECT O FROM Object_in_Room O "
                "WHERE O.location[L] and SAT(L and x >= 5)")
                .size(),
            1u);
}

TEST_F(EvaluatorTest, EntailmentPredicate) {
  // The standard desk's drawer center has p = -2, not p = 0 (§4.1 query 4
  // returns empty on this database).
  EXPECT_EQ(Run("SELECT DSK FROM Desk DSK WHERE DSK.color = 'red' and "
                "DSK.drawer_center[C] and C(p, q) |= p = 0")
                .size(),
            0u);
  EXPECT_EQ(Run("SELECT DSK FROM Desk DSK "
                "WHERE DSK.drawer_center[C] and C(p, q) |= p = -2")
                .size(),
            1u);
}

TEST_F(EvaluatorTest, SelectProjectionCreatesObject) {
  ResultSet r = Run(
      "SELECT ((w) | E(w, z)) FROM Desk X WHERE X.extent[E]");
  ASSERT_EQ(r.size(), 1u);
  CstObject obj = db_.GetCst(r.rows()[0][0]).value();
  EXPECT_EQ(obj.Dimension(), 1u);
  // Extent w-range is [-4, 4].
  EXPECT_TRUE(obj.Contains({Rational(4)}).value());
  EXPECT_FALSE(obj.Contains({Rational(5)}).value());
}

TEST_F(EvaluatorTest, MaxSubjectTo) {
  ResultSet r = Run(
      "SELECT MAX(w + z SUBJECT TO ((w, z) | E)) "
      "FROM Desk X WHERE X.extent[E]");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.rows()[0][0], Oid::Real(Rational(6)));  // 4 + 2.
}

TEST_F(EvaluatorTest, MinSubjectTo) {
  ResultSet r = Run(
      "SELECT MIN(w SUBJECT TO ((w, z) | E)) FROM Desk X WHERE X.extent[E]");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.rows()[0][0], Oid::Real(Rational(-4)));
}

TEST_F(EvaluatorTest, MaxPointSubjectTo) {
  ResultSet r = Run(
      "SELECT MAX_POINT(w + z SUBJECT TO ((w, z) | E)) "
      "FROM Desk X WHERE X.extent[E]");
  ASSERT_EQ(r.size(), 1u);
  CstObject pt = db_.GetCst(r.rows()[0][0]).value();
  EXPECT_EQ(pt.Dimension(), 2u);
  EXPECT_TRUE(pt.Contains({Rational(4), Rational(2)}).value());
}

TEST_F(EvaluatorTest, InfeasibleOptimizationYieldsNoRow) {
  ResultSet r = Run(
      "SELECT MAX(w SUBJECT TO ((w) | E(w, z) and w >= 100)) "
      "FROM Desk X WHERE X.extent[E]");
  EXPECT_EQ(r.size(), 0u);
}

TEST_F(EvaluatorTest, OidFunctionOfNamedTuple) {
  // The §2.2 example: name each office object with its drawer.
  Evaluator ev(&db_);
  ResultSet r = ev.Execute(
                      "CREATE VIEW DeskDrawerPair AS SUBCLASS OF Desk "
                      "SELECT name = X.name, drawer = W "
                      "FROM Desk X OID FUNCTION OF X, W WHERE X.drawer[W]")
                    .value();
  ASSERT_EQ(r.size(), 1u);
  // The pair object exists with a functional oid and both attributes.
  Oid pair = Oid::Func("DeskDrawerPair", {ids_.standard_desk, ids_.the_drawer});
  EXPECT_TRUE(db_.HasObject(pair));
  EXPECT_EQ(db_.GetAttribute(pair, "name").value(),
            Value::Scalar(Oid::Str("standard desk")));
  EXPECT_EQ(db_.GetAttribute(pair, "drawer").value(),
            Value::Scalar(ids_.the_drawer));
}

TEST_F(EvaluatorTest, HigherOrderAttributeVariable) {
  // Find which attributes of the desk hold CST(2) objects: extent and
  // drawer_center (A ranges over attribute names).
  ResultSet r = Run(
      "SELECT A FROM Desk X, CST(2) C WHERE X.A[C]");
  // A is an attribute variable; results bind it per attribute name. The
  // SELECT of an attribute variable yields... the bound attribute's value
  // objects; instead select the CST to count pairs.
  EXPECT_GE(r.size(), 1u);
}

TEST_F(EvaluatorTest, UnknownClassInFrom) {
  Evaluator ev(&db_);
  auto r = ev.Execute("SELECT X FROM Nope X");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST_F(EvaluatorTest, UnboundHeadVariableIsError) {
  // X is bracket-declared by the second conjunct but used (unbound) at
  // the head of the first: binding order is left to right.
  Evaluator ev(&db_);
  auto r = ev.Execute(
      "SELECT X FROM Desk D WHERE X.color['red'] and D.drawer[X]");
  EXPECT_FALSE(r.ok());
  // The other order works.
  auto ok = ev.Execute(
      "SELECT X FROM Desk D WHERE D.drawer[X] and X.color['red']");
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->size(), 1u);
}

TEST_F(EvaluatorTest, UndeclaredHeadIsSymbolicOid) {
  // An identifier that is neither FROM- nor bracket-declared denotes a
  // symbolic oid; a missing object yields an empty path set, not an error.
  ResultSet r = Run("SELECT D FROM Desk D WHERE no_such_thing.color['red']");
  EXPECT_EQ(r.size(), 0u);
}

TEST_F(EvaluatorTest, CartesianProductFrom) {
  ASSERT_TRUE(office::AddScaledDesks(&db_, 3, 1).ok());
  // 4 room objects x 1 desk catalog = 4 rows.
  ResultSet r = Run("SELECT O, D FROM Object_in_Room O, Desk D");
  EXPECT_EQ(r.size(), 4u);
}

TEST_F(EvaluatorTest, RegionClassificationView) {
  // Register a region covering the left half of the room, then classify
  // room objects into it (§4.1's higher-order view, instances = objects).
  VarId x = Variable::Intern("x");
  VarId y = Variable::Intern("y");
  Conjunction left;
  left.Add(LinearConstraint::Ge(LinearExpr::Var(x),
                                LinearExpr::Constant(Rational(0))));
  left.Add(LinearConstraint::Le(LinearExpr::Var(x),
                                LinearExpr::Constant(Rational(10))));
  left.Add(LinearConstraint::Ge(LinearExpr::Var(y),
                                LinearExpr::Constant(Rational(0))));
  left.Add(LinearConstraint::Le(LinearExpr::Var(y),
                                LinearExpr::Constant(Rational(10))));
  CstObject region = CstObject::FromConjunction({x, y}, left).value();
  Oid region_oid = db_.InternCst(region).value();
  ASSERT_TRUE(db_.AddInstanceOf(region_oid, "Region").ok());

  Evaluator ev(&db_);
  ResultSet r = ev.Execute(
                      "CREATE VIEW X AS SUBCLASS OF Object_in_Room "
                      "SELECT Y FROM Object_in_Room Y, Region X "
                      "WHERE Y.location[U] and U |= X")
                    .value();
  // my_desk at (6, 4) lies in the region.
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.rows()[0][0], ids_.my_desk);
  // One class was created, named by the region oid, containing my_desk.
  ASSERT_EQ(ev.created_classes().size(), 1u);
  const std::string& cls = ev.created_classes()[0];
  EXPECT_TRUE(db_.schema().IsSubclass(cls, "Object_in_Room"));
  EXPECT_TRUE(db_.InstanceOf(ids_.my_desk, cls));
}

TEST_F(EvaluatorTest, ViewOverStoredObjectsHasExtent) {
  // A view over existing Object_in_Room objects records instance-of facts
  // for stored objects; its extent (FROM, Database::Extent) must list them
  // once, and the superclass extent must not repeat them.
  ASSERT_TRUE(office::AddScaledDesks(&db_, 3, 1).ok());
  const size_t room_objects = Run("SELECT O FROM Object_in_Room O").size();
  Evaluator ev(&db_);
  ResultSet created =
      ev.Execute(
            "CREATE VIEW Whole_Room AS SUBCLASS OF Object_in_Room "
            "SELECT O FROM Object_in_Room O WHERE O.location[L] and "
            "L(x, y) |= (-100 <= x and x <= 100 and -100 <= y and y <= 100)")
          .value();
  ASSERT_EQ(created.size(), room_objects);
  ASSERT_GE(room_objects, 2u);

  ResultSet members = Run("SELECT V FROM Whole_Room V");
  EXPECT_EQ(members.size(), room_objects);
  EXPECT_EQ(db_.Extent("Whole_Room").size(), room_objects);
  EXPECT_TRUE(db_.InstanceOf(created.rows()[0][0], "Whole_Room"));
  EXPECT_EQ(db_.Extent("Object_in_Room").size(), room_objects);
  EXPECT_EQ(Run("SELECT O FROM Object_in_Room O").size(), room_objects);
}

TEST_F(EvaluatorTest, ResultDeduplicated) {
  // Two identical FROM items over the same class with distinct vars give
  // one row after projection to a constant-ish column.
  ResultSet r = Run("SELECT X.color FROM Desk X, Drawer D");
  EXPECT_EQ(r.size(), 1u);
}

}  // namespace
}  // namespace lyric
