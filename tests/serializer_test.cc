#include "storage/serializer.h"

#include <gtest/gtest.h>

#include "office/office_db.h"
#include "query/evaluator.h"

namespace lyric {
namespace {

class SerializerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ids = office::BuildOfficeDatabase(&db_);
    ASSERT_TRUE(ids.ok()) << ids.status();
    ids_ = *ids;
  }

  Database db_;
  office::OfficeIds ids_;
};

TEST_F(SerializerTest, DumpContainsEverySection) {
  std::string text = Serializer::DumpDatabase(db_).value();
  EXPECT_NE(text.find("CLASS Office_Object (x, y)"), std::string::npos);
  EXPECT_NE(text.find("CLASS Desk"), std::string::npos);
  EXPECT_NE(text.find("ISA Office_Object"), std::string::npos);
  EXPECT_NE(text.find("OBJECT my_desk => Object_in_Room"), std::string::npos);
  EXPECT_NE(text.find("inv_number = '22-354'"), std::string::npos);
  EXPECT_NE(text.find("CST ((@0, @1) |"), std::string::npos);
}

TEST_F(SerializerTest, RoundTripPreservesSchema) {
  std::string text = Serializer::DumpDatabase(db_).value();
  Database loaded;
  ASSERT_TRUE(Serializer::LoadDatabase(text, &loaded).ok());
  EXPECT_EQ(loaded.schema().ClassNames(), db_.schema().ClassNames());
  // Attribute signatures survive, including set-valuedness and renaming.
  auto dc = loaded.schema().FindAttribute("File_Cabinet", "drawer_center");
  ASSERT_TRUE(dc.ok());
  EXPECT_TRUE((*dc)->set_valued);
  EXPECT_EQ((*dc)->variables, (std::vector<std::string>{"p1", "q1"}));
  auto drawer = loaded.schema().FindAttribute("Desk", "drawer");
  ASSERT_TRUE(drawer.ok());
  EXPECT_EQ((*drawer)->target_class, "Drawer");
  EXPECT_EQ((*drawer)->variables, (std::vector<std::string>{"p", "q"}));
}

TEST_F(SerializerTest, RoundTripPreservesObjectsAndCstIdentities) {
  std::string text = Serializer::DumpDatabase(db_).value();
  Database loaded;
  ASSERT_TRUE(Serializer::LoadDatabase(text, &loaded).ok());
  EXPECT_EQ(loaded.ObjectCount(), db_.ObjectCount());
  EXPECT_TRUE(loaded.CheckIntegrity().ok());
  // Every attribute of every object matches, including CST oids (identity
  // is the canonical form, so interning on load reproduces equal oids).
  for (const auto& [oid, rec] : db_.objects()) {
    for (const auto& [attr, value] : rec.attrs) {
      EXPECT_EQ(loaded.GetAttribute(oid, attr).value(), value)
          << oid << "." << attr;
    }
  }
}

TEST_F(SerializerTest, RoundTripSemanticsViaQueries) {
  std::string text = Serializer::DumpDatabase(db_).value();
  Database loaded;
  ASSERT_TRUE(Serializer::LoadDatabase(text, &loaded).ok());
  // The paper's Q2 yields the same box on the loaded database.
  Evaluator ev(&loaded);
  ResultSet r = ev.Execute(
                      "SELECT CO, ((u, v) | E and D and x = 6 and y = 4) "
                      "FROM Office_Object CO "
                      "WHERE CO.extent[E] and CO.translation[D]")
                    .value();
  ASSERT_EQ(r.size(), 1u);
  CstObject answer = loaded.GetCst(r.rows()[0][1]).value();
  VarId u = Variable::Intern("u");
  VarId v = Variable::Intern("v");
  EXPECT_TRUE(answer.Contains({Rational(2), Rational(2)}).value());
  EXPECT_FALSE(answer.Contains({Rational(1), Rational(2)}).value());
  (void)u;
  (void)v;
}

TEST_F(SerializerTest, RoundTripLazyExistentialObjects) {
  // Store a CST attribute with a quantified body ("exists ..."); the dump
  // prints the quantifier and the loader parses it back.
  VarId x = Variable::Intern("x");
  VarId h = Variable::Intern("hidden");
  Conjunction c;
  c.Add(LinearConstraint::Eq(LinearExpr::Var(x),
                             LinearExpr::Var(h).Scale(Rational(2))));
  c.Add(LinearConstraint::Ge(LinearExpr::Var(h),
                             LinearExpr::Constant(Rational(0))));
  c.Add(LinearConstraint::Le(LinearExpr::Var(h),
                             LinearExpr::Constant(Rational(1))));
  CstObject lazy =
      CstObject::Make({x}, DisjunctiveExistential(
                               ExistentialConjunction(c, VarSet{h})))
          .value();
  ClassDef holder;
  holder.name = "Holder";
  holder.attributes = {{"body", false, kCstClass, {"x"}}};
  ASSERT_TRUE(db_.AddClass(holder).ok());
  Oid hobj = Oid::Symbol("holder1");
  ASSERT_TRUE(db_.Insert(hobj, "Holder").ok());
  ASSERT_TRUE(db_.SetCstAttribute(hobj, "body", lazy).ok());

  std::string text = Serializer::DumpDatabase(db_).value();
  EXPECT_NE(text.find("exists"), std::string::npos);
  Database loaded;
  ASSERT_TRUE(Serializer::LoadDatabase(text, &loaded).ok());
  Oid body = loaded.GetAttribute(hobj, "body").value().scalar();
  CstObject obj = loaded.GetCst(body).value();
  // Semantics preserved: x in [0, 2].
  EXPECT_TRUE(obj.Contains({Rational(2)}).value());
  EXPECT_TRUE(obj.Contains({Rational(1, 3)}).value());
  EXPECT_FALSE(obj.Contains({Rational(3)}).value());
}

TEST_F(SerializerTest, RoundTripSetValuesAndFunctionalOids) {
  ASSERT_TRUE(office::AddScaledDesks(&db_, 3, 5).ok());
  Oid cab = Oid::Symbol("ser_cab");
  ASSERT_TRUE(db_.Insert(cab, "File_Cabinet").ok());
  Oid d1 = Oid::Symbol("ser_d1");
  Oid d2 = Oid::Symbol("ser_d2");
  for (const Oid& d : {d1, d2}) ASSERT_TRUE(db_.Insert(d, "Drawer").ok());
  ASSERT_TRUE(db_.SetAttribute(cab, "drawer", Value::Set({d1, d2})).ok());

  std::string text = Serializer::DumpDatabase(db_).value();
  Database loaded;
  ASSERT_TRUE(Serializer::LoadDatabase(text, &loaded).ok());
  EXPECT_EQ(loaded.GetAttribute(cab, "drawer").value(),
            Value::Set({d1, d2}));
  // Functional oids from the scaled generator survive.
  Oid gen = Oid::Func("desk_in_room", {Oid::Int(0), Oid::Int(5)});
  EXPECT_TRUE(loaded.HasObject(gen));
}

TEST_F(SerializerTest, RoundTripInstanceOfFacts) {
  Oid region = db_.InternCst(office::BoxExtent(2, 2)).value();
  ASSERT_TRUE(db_.AddInstanceOf(region, "Region").ok());
  std::string text = Serializer::DumpDatabase(db_).value();
  Database loaded;
  ASSERT_TRUE(Serializer::LoadDatabase(text, &loaded).ok());
  auto regions = loaded.Extent("Region");
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0], region);
}

TEST_F(SerializerTest, KeywordNamedAttributesRoundTrip) {
  // Attribute and class names may collide with query keywords.
  ClassDef limits;
  limits.name = "Limits";
  limits.attributes = {{"max", false, kIntClass, {}},
                       {"view", false, kStringClass, {}}};
  ASSERT_TRUE(db_.AddClass(limits).ok());
  Oid obj = Oid::Symbol("lim1");
  ASSERT_TRUE(db_.Insert(obj, "Limits").ok());
  ASSERT_TRUE(
      db_.SetAttribute(obj, "max", Value::Scalar(Oid::Int(9))).ok());
  ASSERT_TRUE(
      db_.SetAttribute(obj, "view", Value::Scalar(Oid::Str("side"))).ok());
  std::string text = Serializer::DumpDatabase(db_).value();
  Database loaded;
  ASSERT_TRUE(Serializer::LoadDatabase(text, &loaded).ok());
  EXPECT_EQ(loaded.GetAttribute(obj, "max").value(),
            Value::Scalar(Oid::Int(9)));
  EXPECT_EQ(loaded.GetAttribute(obj, "view").value(),
            Value::Scalar(Oid::Str("side")));
}

TEST_F(SerializerTest, StringOidsHoldingAQuoteRoundTrip) {
  // The lexer reads '' inside a literal as one quote, so a string oid that
  // holds one is written with it doubled: as a value and as an argument of
  // an OID-function oid.
  ClassDef notes;
  notes.name = "Notes";
  notes.attributes = {{"text", false, kStringClass, {}}};
  ASSERT_TRUE(db_.AddClass(notes).ok());
  const Oid note = Oid::Func("note", {Oid::Str("it's"), Oid::Int(1)});
  ASSERT_TRUE(db_.Insert(note, "Notes").ok());
  ASSERT_TRUE(
      db_.SetAttribute(note, "text", Value::Scalar(Oid::Str("it's"))).ok());
  const std::string text = Serializer::DumpDatabase(db_).value();
  EXPECT_NE(text.find("OBJECT note('it''s', 1) => Notes [\n"
                      "  text = 'it''s';\n"),
            std::string::npos)
      << text;
  Database loaded;
  Status st = Serializer::LoadDatabase(text, &loaded);
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_EQ(loaded.GetAttribute(note, "text").value(),
            Value::Scalar(Oid::Str("it's")));
  EXPECT_EQ(Serializer::DumpDatabase(loaded).value(), text);
}

TEST_F(SerializerTest, LoadRequiresEmptyDatabase) {
  std::string text = Serializer::DumpDatabase(db_).value();
  EXPECT_TRUE(Serializer::LoadDatabase(text, &db_).IsInvalidArgument());
}

TEST_F(SerializerTest, LoadRejectsGarbage) {
  Database fresh;
  EXPECT_TRUE(
      Serializer::LoadDatabase("HELLO WORLD", &fresh).IsParseError());
  Database fresh2;
  EXPECT_FALSE(
      Serializer::LoadDatabase("OBJECT x => Missing [ ]", &fresh2).ok());
}

TEST_F(SerializerTest, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "/lyric_dump_test.lyricdb";
  ASSERT_TRUE(Serializer::SaveToFile(db_, path).ok());
  Database loaded;
  ASSERT_TRUE(Serializer::LoadFromFile(path, &loaded).ok());
  EXPECT_EQ(loaded.ObjectCount(), db_.ObjectCount());
  EXPECT_TRUE(
      Serializer::LoadFromFile("/nonexistent/nope", &loaded).IsNotFound());
}

}  // namespace
}  // namespace lyric
