#include "object/database.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "office/office_db.h"

namespace lyric {
namespace {

class DatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ids = office::BuildOfficeDatabase(&db_);
    ASSERT_TRUE(ids.ok()) << ids.status();
    ids_ = *ids;
  }

  Database db_;
  office::OfficeIds ids_;
};

TEST_F(DatabaseTest, FigureTwoInstanceComplete) {
  EXPECT_TRUE(db_.HasObject(ids_.my_desk));
  EXPECT_EQ(db_.ClassOf(ids_.my_desk).value(), "Object_in_Room");
  EXPECT_EQ(db_.ClassOf(ids_.standard_desk).value(), "Desk");
  EXPECT_EQ(db_.ClassOf(ids_.the_drawer).value(), "Drawer");
  EXPECT_EQ(db_.GetAttribute(ids_.my_desk, "inv_number").value(),
            Value::Scalar(Oid::Str("22-354")));
  EXPECT_TRUE(db_.CheckIntegrity().ok());
}

TEST_F(DatabaseTest, CstAttributeRoundTrip) {
  Value loc = db_.GetAttribute(ids_.my_desk, "location").value();
  ASSERT_TRUE(loc.is_scalar());
  ASSERT_TRUE(loc.scalar().IsCst());
  CstObject obj = db_.GetCst(loc.scalar()).value();
  EXPECT_EQ(obj.Dimension(), 2u);
  EXPECT_TRUE(obj.Contains({Rational(6), Rational(4)}).value());
  EXPECT_FALSE(obj.Contains({Rational(6), Rational(5)}).value());
}

TEST_F(DatabaseTest, CstInterningSharesOids) {
  // The desk and the drawer have the same translation constraint: the
  // store must intern them to one oid.
  Value a = db_.GetAttribute(ids_.standard_desk, "translation").value();
  Value b = db_.GetAttribute(ids_.the_drawer, "translation").value();
  EXPECT_EQ(a.scalar(), b.scalar());
  // Distinct constraints get distinct oids.
  Value e = db_.GetAttribute(ids_.standard_desk, "extent").value();
  EXPECT_NE(a.scalar(), e.scalar());
}

TEST_F(DatabaseTest, ConcurrentCstInterningAgreesOnOids) {
  // InternCst renders an object's canonical string outside the store's
  // lock, and that string names dimension i "@i". Threads interning boxes
  // of dimensions no earlier call has seen intern those names at the same
  // time, and must still agree on every oid with each other and with a
  // later serial intern.
  constexpr size_t kMinDim = 3;
  constexpr size_t kMaxDim = 39;
  auto box = [](size_t dim) {
    std::vector<VarId> vars;
    Conjunction c;
    for (size_t i = 0; i < dim; ++i) {
      VarId v = Variable::Intern("box" + std::to_string(i));
      vars.push_back(v);
      c.Add(LinearConstraint::Ge(LinearExpr::Var(v),
                                 LinearExpr::Constant(Rational(0))));
      c.Add(LinearConstraint::Le(
          LinearExpr::Var(v),
          LinearExpr::Constant(Rational(static_cast<int64_t>(i) + 1))));
    }
    return CstObject::FromConjunction(vars, c).value();
  };
  constexpr int kThreads = 4;
  std::vector<std::vector<Result<Oid>>> oids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t dim = kMinDim; dim <= kMaxDim; ++dim) {
        oids[t].push_back(db_.InternCst(box(dim)));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t dim = kMinDim; dim <= kMaxDim; ++dim) {
    Result<Oid> serial = db_.InternCst(box(dim));
    ASSERT_TRUE(serial.ok()) << serial.status();
    for (int t = 0; t < kThreads; ++t) {
      const Result<Oid>& got = oids[t][dim - kMinDim];
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(*got, *serial) << "dimension " << dim << ", thread " << t;
    }
  }
}

TEST_F(DatabaseTest, InstanceOfLiterals) {
  EXPECT_TRUE(db_.InstanceOf(Oid::Int(20), "int"));
  EXPECT_TRUE(db_.InstanceOf(Oid::Int(20), "real"));
  EXPECT_FALSE(db_.InstanceOf(Oid::Int(20), "string"));
  EXPECT_TRUE(db_.InstanceOf(Oid::Str("red"), "string"));
  EXPECT_TRUE(db_.InstanceOf(Oid::Bool(true), "bool"));
}

TEST_F(DatabaseTest, InstanceOfViaIsA) {
  EXPECT_TRUE(db_.InstanceOf(ids_.standard_desk, "Desk"));
  EXPECT_TRUE(db_.InstanceOf(ids_.standard_desk, "Office_Object"));
  EXPECT_FALSE(db_.InstanceOf(ids_.standard_desk, "File_Cabinet"));
  EXPECT_FALSE(db_.InstanceOf(ids_.my_desk, "Desk"));
}

TEST_F(DatabaseTest, InstanceOfCstByDimension) {
  Value loc = db_.GetAttribute(ids_.my_desk, "location").value();
  EXPECT_TRUE(db_.InstanceOf(loc.scalar(), "CST"));
  EXPECT_TRUE(db_.InstanceOf(loc.scalar(), "CST(2)"));
  EXPECT_FALSE(db_.InstanceOf(loc.scalar(), "CST(3)"));
}

TEST_F(DatabaseTest, ExtentWithInheritance) {
  auto office_objects = db_.Extent("Office_Object");
  EXPECT_EQ(office_objects.size(), 1u);  // standard_desk (a Desk).
  auto desks = db_.Extent("Desk");
  EXPECT_EQ(desks.size(), 1u);
  auto drawers = db_.Extent("Drawer");
  EXPECT_EQ(drawers.size(), 1u);
  auto cabinets = db_.Extent("File_Cabinet");
  EXPECT_TRUE(cabinets.empty());
}

TEST_F(DatabaseTest, ExtentOfCstClasses) {
  // location (1), extent boxes (2 distinct), translation (1 shared),
  // drawer_center (1) -> 5 two-dimensional + 1 six-dimensional.
  auto cst2 = db_.Extent("CST(2)");
  EXPECT_EQ(cst2.size(), 4u);
  auto cst6 = db_.Extent("CST(6)");
  EXPECT_EQ(cst6.size(), 1u);
  auto all = db_.Extent("CST");
  EXPECT_EQ(all.size(), 5u);
}

TEST_F(DatabaseTest, SetAttributeTypeChecked) {
  // Wrong target class.
  EXPECT_TRUE(db_.SetAttribute(ids_.my_desk, "catalog_object",
                               Value::Scalar(Oid::Int(5)))
                  .IsTypeError());
  // Scalar attribute given a set.
  EXPECT_TRUE(db_.SetAttribute(ids_.my_desk, "inv_number",
                               Value::Set({Oid::Str("a")}))
                  .IsTypeError());
  // Unknown attribute.
  EXPECT_TRUE(db_.SetAttribute(ids_.my_desk, "nope",
                               Value::Scalar(Oid::Int(1)))
                  .IsNotFound());
  // CST dimension mismatch: location wants CST(2).
  CstObject six = office::StandardTranslation();
  auto st = db_.SetCstAttribute(ids_.my_desk, "location", six);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.status().IsTypeError());
}

TEST_F(DatabaseTest, SetValuedAttributeOnFileCabinet) {
  Oid cab = Oid::Symbol("cab1");
  ASSERT_TRUE(db_.Insert(cab, "File_Cabinet").ok());
  Oid d1 = Oid::Symbol("cab_drawer1");
  Oid d2 = Oid::Symbol("cab_drawer2");
  for (const Oid& d : {d1, d2}) {
    ASSERT_TRUE(db_.Insert(d, "Drawer").ok());
    ASSERT_TRUE(
        db_.SetCstAttribute(d, "extent", office::BoxExtent(1, 1)).ok());
  }
  ASSERT_TRUE(db_.SetAttribute(cab, "drawer", Value::Set({d1, d2})).ok());
  Value v = db_.GetAttribute(cab, "drawer").value();
  EXPECT_EQ(v.elements().size(), 2u);
  EXPECT_TRUE(db_.CheckIntegrity().ok());
}

TEST_F(DatabaseTest, AddInstanceOfRegionView) {
  // A CST(2) oid can be classified into the Region subclass (the §4.1
  // higher-order view mechanism).
  Value loc = db_.GetAttribute(ids_.my_desk, "location").value();
  ASSERT_TRUE(db_.AddInstanceOf(loc.scalar(), "Region").ok());
  EXPECT_TRUE(db_.InstanceOf(loc.scalar(), "Region"));
  auto regions = db_.Extent("Region");
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0], loc.scalar());
}

TEST_F(DatabaseTest, DuplicateInsertRejected) {
  EXPECT_TRUE(db_.Insert(ids_.my_desk, "Desk").IsAlreadyExists());
  EXPECT_TRUE(db_.Insert(Oid::Symbol("q"), "Nope").IsNotFound());
}

TEST_F(DatabaseTest, UpdateIsFullyGeneral) {
  // §6: "there is no reason that moving a desk would be limited in any
  // way" — overwrite the location wholesale.
  ASSERT_TRUE(
      db_.SetCstAttribute(ids_.my_desk, "location", office::LocationAt(1, 1))
          .ok());
  CstObject moved =
      db_.GetCst(db_.GetAttribute(ids_.my_desk, "location").value().scalar())
          .value();
  EXPECT_TRUE(moved.Contains({Rational(1), Rational(1)}).value());
  EXPECT_FALSE(moved.Contains({Rational(6), Rational(4)}).value());
}

TEST_F(DatabaseTest, ClearAttribute) {
  ASSERT_TRUE(db_.ClearAttribute(ids_.my_desk, "inv_number").ok());
  EXPECT_TRUE(
      db_.GetAttribute(ids_.my_desk, "inv_number").status().IsNotFound());
  EXPECT_TRUE(db_.ClearAttribute(ids_.my_desk, "inv_number").IsNotFound());
  EXPECT_TRUE(
      db_.ClearAttribute(Oid::Symbol("ghost"), "x").IsNotFound());
}

TEST_F(DatabaseTest, DeleteObjectProtectsReferences) {
  // The drawer is referenced by the desk: plain delete refuses.
  Status st = db_.DeleteObject(ids_.the_drawer);
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_NE(st.message().find("referenced"), std::string::npos);
  // Forced delete cascades: the desk loses its drawer attribute.
  ASSERT_TRUE(db_.DeleteObject(ids_.the_drawer, /*force=*/true).ok());
  EXPECT_FALSE(db_.HasObject(ids_.the_drawer));
  EXPECT_TRUE(
      db_.GetAttribute(ids_.standard_desk, "drawer").status().IsNotFound());
  EXPECT_TRUE(db_.CheckIntegrity().ok());
}

TEST_F(DatabaseTest, DeleteFromSetValuedAttribute) {
  Oid cab = Oid::Symbol("del_cab");
  ASSERT_TRUE(db_.Insert(cab, "File_Cabinet").ok());
  Oid d1 = Oid::Symbol("del_d1");
  Oid d2 = Oid::Symbol("del_d2");
  for (const Oid& d : {d1, d2}) ASSERT_TRUE(db_.Insert(d, "Drawer").ok());
  ASSERT_TRUE(db_.SetAttribute(cab, "drawer", Value::Set({d1, d2})).ok());
  ASSERT_TRUE(db_.DeleteObject(d1, /*force=*/true).ok());
  EXPECT_EQ(db_.GetAttribute(cab, "drawer").value(), Value::Set({d2}));
}

TEST_F(DatabaseTest, ScaledDesksGenerate) {
  ASSERT_TRUE(office::AddScaledDesks(&db_, 10, 42).ok());
  EXPECT_EQ(db_.Extent("Object_in_Room").size(), 11u);
  EXPECT_TRUE(db_.CheckIntegrity().ok());
  // Deterministic: same seed, same positions.
  Database db2;
  ASSERT_TRUE(office::BuildOfficeDatabase(&db2).ok());
  ASSERT_TRUE(office::AddScaledDesks(&db2, 10, 42).ok());
  Oid d0 = Oid::Func("desk_in_room", {Oid::Int(0), Oid::Int(42)});
  EXPECT_EQ(db_.GetAttribute(d0, "location").value(),
            db2.GetAttribute(d0, "location").value());
}

TEST_F(DatabaseTest, ScaledDesksPerDeskCatalog) {
  ASSERT_TRUE(office::AddScaledDesks(&db_, 5, 7, /*share_catalog=*/false).ok());
  EXPECT_EQ(db_.Extent("Desk").size(), 6u);  // standard + 5 models.
  EXPECT_TRUE(db_.CheckIntegrity().ok());
}

}  // namespace
}  // namespace lyric
