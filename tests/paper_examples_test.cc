// E1/E2: the worked examples of §4.1 evaluated end to end on the Figure 2
// database, checked against the answers the paper states.

#include <gtest/gtest.h>

#include "config/config.h"
#include "office/office_db.h"
#include "query/evaluator.h"

namespace lyric {
namespace {

class PaperExamplesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ids = office::BuildOfficeDatabase(&db_);
    ASSERT_TRUE(ids.ok()) << ids.status();
    ids_ = *ids;
  }

  ResultSet Run(const std::string& text) {
    Evaluator ev(&db_, options_);
    auto r = ev.Execute(text);
    EXPECT_TRUE(r.ok()) << text << "\n -> " << r.status();
    return r.ok() ? *r : ResultSet();
  }

  CstObject Cst(const Oid& oid) { return db_.GetCst(oid).value(); }

  // Builds a box [lo_u, hi_u] x [lo_v, hi_v] over (u, v) for comparisons.
  CstObject UvBox(int64_t lo_u, int64_t hi_u, int64_t lo_v, int64_t hi_v) {
    VarId u = Variable::Intern("u");
    VarId v = Variable::Intern("v");
    Conjunction c;
    c.Add(LinearConstraint::Ge(LinearExpr::Var(u),
                               LinearExpr::Constant(Rational(lo_u))));
    c.Add(LinearConstraint::Le(LinearExpr::Var(u),
                               LinearExpr::Constant(Rational(hi_u))));
    c.Add(LinearConstraint::Ge(LinearExpr::Var(v),
                               LinearExpr::Constant(Rational(lo_v))));
    c.Add(LinearConstraint::Le(LinearExpr::Var(v),
                               LinearExpr::Constant(Rational(hi_v))));
    return CstObject::FromConjunction({u, v}, c).value();
  }

  Database db_;
  office::OfficeIds ids_;
  // The environment's per-query defaults: the ctest gates that rerun
  // this suite arm LYRIC_RETRY along with their faults.
  const EvalOptions options_ = Config::FromEnv().Eval();
};

// §4.1 query 1: "retrieve all extent attributes of drawers in desks".
// Expected answer: the logical oid of ((w,z) | -1<=w<=1 and -1<=z<=1).
TEST_F(PaperExamplesTest, Q1DrawerExtentAsLogicalOid) {
  ResultSet r = Run("SELECT Y FROM Desk X WHERE X.drawer.extent[Y]");
  ASSERT_EQ(r.size(), 1u);
  ASSERT_TRUE(r.rows()[0][0].IsCst());
  CstObject expected = office::BoxExtent(1, 1);
  EXPECT_TRUE(Cst(r.rows()[0][0]).EquivalentTo(expected).value());
  // Identity is the canonical form: the stored attribute has the same oid.
  EXPECT_EQ(r.rows()[0][0],
            db_.GetAttribute(ids_.the_drawer, "extent").value().scalar());
}

// §4.1 query 2 (explicit variables): the extent of each catalog object in
// room coordinates with its center at (6, 4). The paper simplifies the
// answer to ((u,v) | 2 <= u <= 10 and 2 <= v <= 6).
TEST_F(PaperExamplesTest, Q2GlobalExtentExplicitVariables) {
  ResultSet r = Run(
      "SELECT CO, ((u, v) | E(w, z) and D(w, z, x, y, u, v) and x = 6 and "
      "y = 4) "
      "FROM Office_Object CO "
      "WHERE CO.extent[E] and CO.translation[D]");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.rows()[0][0], ids_.standard_desk);
  CstObject answer = Cst(r.rows()[0][1]);
  EXPECT_EQ(answer.Dimension(), 2u);
  EXPECT_TRUE(answer.EquivalentTo(UvBox(2, 10, 2, 6)).value());
}

// §4.1 query 2 (short form): "the same variables (w,z) are used in the
// description of extent and translation of the same object", so the bare
// uses E and D conjoin through the schema names.
TEST_F(PaperExamplesTest, Q2GlobalExtentBareUses) {
  ResultSet r = Run(
      "SELECT CO, ((u, v) | E and D and x = 6 and y = 4) "
      "FROM Office_Object CO "
      "WHERE CO.extent[E] and CO.translation[D]");
  ASSERT_EQ(r.size(), 1u);
  CstObject answer = Cst(r.rows()[0][1]);
  EXPECT_TRUE(answer.EquivalentTo(UvBox(2, 10, 2, 6)).value());
}

// The §4.1 footnote result printed for my_desk: with the location
// constraint L instead of literal x = 6, y = 4.
TEST_F(PaperExamplesTest, Q2ViaLocationAttribute) {
  ResultSet r = Run(
      "SELECT O, ((u, v) | E and D and L) "
      "FROM Object_in_Room O, Office_Object CO "
      "WHERE O.catalog_object[CO] and O.location[L] and "
      "      CO.extent[E] and CO.translation[D]");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.rows()[0][0], ids_.my_desk);
  EXPECT_TRUE(Cst(r.rows()[0][1]).EquivalentTo(UvBox(2, 10, 2, 6)).value());
}

// §4.1 query 3: the area the drawer can occupy, in room coordinates. The
// schema-derived implicit equalities p = x1, q = y1 link the drawer
// center to the drawer translation. For my_desk at (6, 4) with drawer
// center p = -2, -2 <= q <= 0 and drawer extent [-1,1]^2 the answer is
// [3,5] x [1,5].
TEST_F(PaperExamplesTest, Q3DrawerAreaWithImplicitEqualities) {
  ResultSet r = Run(
      "SELECT O, ((u, v) | D(w, z, x, y, u, v) and "
      "  DD(w1, z1, x1, y1, u1, v1) and w = u1 and z = v1 and "
      "  DC(p, q) and DE(w1, z1) and L(x, y)) "
      "FROM Object_in_Room O, Desk DSK "
      "WHERE O.location[L] and O.catalog_object[DSK] and "
      "  DSK.translation[D] and DSK.drawer_center[DC] and "
      "  DSK.drawer.translation[DD] and DSK.drawer.extent[DE]");
  ASSERT_EQ(r.size(), 1u);
  CstObject area = Cst(r.rows()[0][1]);
  EXPECT_TRUE(area.EquivalentTo(UvBox(3, 5, 1, 5)).value())
      << area.ToString();
}

// §4.1 query 3's WHERE filter: only desks whose center may appear in the
// left upper quarter of the 20 x 10 room. my_desk is at (6, 4), outside.
TEST_F(PaperExamplesTest, Q3LocationFilterExcludesMyDesk) {
  ResultSet r = Run(
      "SELECT O FROM Object_in_Room O, Desk DSK "
      "WHERE O.location[L] and O.catalog_object[DSK] and "
      "  SAT(L(x, y) and 0 <= x and x <= 10 and 5 <= y and y <= 10)");
  EXPECT_EQ(r.size(), 0u);
  // The lower quarter filter admits it.
  ResultSet r2 = Run(
      "SELECT O FROM Object_in_Room O, Desk DSK "
      "WHERE O.location[L] and O.catalog_object[DSK] and "
      "  SAT(L(x, y) and 0 <= x and x <= 10 and 0 <= y and y <= 5)");
  EXPECT_EQ(r2.size(), 1u);
}

// §4.1 query 4: red desks with the drawer in the middle of the desk,
// tested with the |= predicate. The standard desk's drawer line is at
// p = -2, so the paper's p = 0 test rejects it and p = -2 accepts it.
TEST_F(PaperExamplesTest, Q4DrawerMiddleEntailment) {
  ResultSet centered = Run(
      "SELECT DSK, ((w, z) | DSK.drawer.extent(w, z) and z >= w) "
      "FROM Desk DSK "
      "WHERE DSK.color = 'red' and DSK.drawer_center[C] and "
      "      C(p, q) |= p = 0");
  EXPECT_EQ(centered.size(), 0u);

  ResultSet offset = Run(
      "SELECT DSK, ((w, z) | DSK.drawer.extent(w, z) and z >= w) "
      "FROM Desk DSK "
      "WHERE DSK.color = 'red' and DSK.drawer_center[C] and "
      "      C(p, q) |= p = -2");
  ASSERT_EQ(offset.size(), 1u);
  // The returned CST object is the drawer extent above the 45-degree
  // line: the triangle w,z in [-1,1], z >= w.
  CstObject tri = Cst(offset.rows()[0][1]);
  EXPECT_TRUE(tri.Contains({Rational(-1), Rational(1)}).value());
  EXPECT_TRUE(tri.Contains({Rational(0), Rational(0)}).value());
  EXPECT_FALSE(tri.Contains({Rational(1), Rational(0)}).value());
  EXPECT_FALSE(tri.Contains({Rational(2), Rational(2)}).value());
}

// §4.1 query 5: desks in the room whose drawer never touches the walls of
// the 20 x 10 room — entailment of the drawer area in the open room box.
TEST_F(PaperExamplesTest, Q5DrawerNeverTouchesWalls) {
  // my_desk's drawer area is [3,5] x [1,5], strictly inside the room.
  ResultSet r = Run(
      "SELECT DSK FROM Object_in_Room O, Desk DSK "
      "WHERE O.catalog_object[DSK] and O.location[L] and "
      "  DSK.translation[D] and DSK.drawer_center[DC] and "
      "  DSK.drawer.extent[DE] and DSK.drawer.translation[DD] and "
      "  ((u, v) | D(w, z, x, y, u, v) and DD(w1, z1, x1, y1, u1, v1) and "
      "   w = u1 and z = v1 and DC(p, q) and DE(w1, z1) and L(x, y)) "
      "  |= ((u, v) | 0 < u and u < 20 and 0 < v and v < 10)");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.rows()[0][0], ids_.standard_desk);
}

// §4.1 query 5 negative: in a 6-wide room the drawer area [3,5] x [1,5]
// touches nothing horizontally but the v range exceeds a 4-high room.
TEST_F(PaperExamplesTest, Q5TouchingWallRejected) {
  ResultSet r = Run(
      "SELECT DSK FROM Object_in_Room O, Desk DSK "
      "WHERE O.catalog_object[DSK] and O.location[L] and "
      "  DSK.translation[D] and DSK.drawer_center[DC] and "
      "  DSK.drawer.extent[DE] and DSK.drawer.translation[DD] and "
      "  ((u, v) | D(w, z, x, y, u, v) and DD(w1, z1, x1, y1, u1, v1) and "
      "   w = u1 and z = v1 and DC(p, q) and DE(w1, z1) and L(x, y)) "
      "  |= ((u, v) | 0 < u and u < 20 and 0 < v and v < 4)");
  EXPECT_EQ(r.size(), 0u);
}

// §2.2's Overlap view: pairs of catalog objects occupying the same volume.
// With one extra desk at the same position, the overlap test (conjunction
// satisfiability of the two room-coordinate extents) fires.
TEST_F(PaperExamplesTest, OverlapViewFromSectionTwo) {
  ASSERT_TRUE(office::AddScaledDesks(&db_, 1, 99).ok());
  Evaluator ev(&db_, options_);
  // Overlap of room objects: conjoin each object's extent translated to
  // its own location; shared names are renamed apart per object.
  auto r = ev.Execute(
      "CREATE VIEW Overlap AS SUBCLASS OF Object_in_Room "
      "SELECT first = O1, second = O2 "
      "FROM Object_in_Room O1, Object_in_Room O2 "
      "OID FUNCTION OF O1, O2 "
      "WHERE O1.location[L1] and O1.catalog_object.extent[E1] and "
      "      O1.catalog_object.translation[D1] and "
      "      O2.location[L2] and O2.catalog_object.extent[E2] and "
      "      O2.catalog_object.translation[D2] and "
      "      not O1.inv_number = O2.inv_number and "
      "      SAT( ((u, v) | E1(w, z) and D1(w, z, x, y, u, v) and L1(x, y)) "
      "       and ((u, v) | E2(w2, z2) and D2(w2, z2, x2, y2, u, v) and "
      "            L2(x2, y2)) )");
  ASSERT_TRUE(r.ok()) << r.status();
  // Whether the random desk overlaps my_desk depends on the seed; the
  // view machinery itself must have registered the class.
  EXPECT_TRUE(db_.schema().HasClass("Overlap"));
  EXPECT_TRUE(db_.schema().IsSubclass("Overlap", "Object_in_Room"));
  // Every overlap is symmetric: (a,b) in result iff (b,a) in result.
  std::set<std::pair<std::string, std::string>> pairs;
  for (const auto& row : r->rows()) {
    pairs.emplace(row[0].ToString(), row[1].ToString());
  }
  for (const auto& [a, b] : pairs) {
    EXPECT_TRUE(pairs.count({b, a})) << a << " overlaps " << b;
  }
}

// §3.2's instance table rendered back: my_desk.location is exactly
// ((x,y) | x = 6 and y = 4).
TEST_F(PaperExamplesTest, InstanceTableRoundTrip) {
  Value loc = db_.GetAttribute(ids_.my_desk, "location").value();
  std::string canonical = Cst(loc.scalar()).CanonicalString().value();
  EXPECT_EQ(canonical, office::LocationAt(6, 4).CanonicalString().value());
  Value ext = db_.GetAttribute(ids_.standard_desk, "extent").value();
  EXPECT_EQ(Cst(ext.scalar()).CanonicalString().value(),
            office::BoxExtent(4, 2).CanonicalString().value());
}

// "Show a projection of their cut at the height of 1/2 feet" (§1.2): fix
// v and project the room-coordinate extent onto u.
TEST_F(PaperExamplesTest, CutProjectionQuery) {
  ResultSet r = Run(
      "SELECT ((u) | E and D and L and v = 5/2 + 1/2) "
      "FROM Object_in_Room O, Office_Object CO "
      "WHERE O.catalog_object[CO] and O.location[L] and "
      "      CO.extent[E] and CO.translation[D]");
  ASSERT_EQ(r.size(), 1u);
  CstObject cut = Cst(r.rows()[0][0]);
  EXPECT_EQ(cut.Dimension(), 1u);
  // At height 3 (within [2,6]) the u-range is the full [2,10].
  EXPECT_TRUE(cut.Contains({Rational(2)}).value());
  EXPECT_TRUE(cut.Contains({Rational(10)}).value());
  EXPECT_FALSE(cut.Contains({Rational(11)}).value());
}

}  // namespace
}  // namespace lyric
