#include "object/schema.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "office/office_db.h"

namespace lyric {
namespace {

TEST(SchemaTest, BuiltinsExist) {
  Schema s;
  EXPECT_TRUE(s.HasClass("int"));
  EXPECT_TRUE(s.HasClass("real"));
  EXPECT_TRUE(s.HasClass("string"));
  EXPECT_TRUE(s.HasClass("bool"));
  EXPECT_TRUE(s.HasClass("CST"));
  EXPECT_TRUE(s.HasClass("CST(2)"));
  EXPECT_FALSE(s.HasClass("Desk"));
}

TEST(SchemaTest, CstClassNames) {
  EXPECT_EQ(CstClassName(2), "CST(2)");
  EXPECT_EQ(ParseCstClassName("CST(2)"), 2u);
  EXPECT_EQ(ParseCstClassName("CST(10)"), 10u);
  EXPECT_FALSE(ParseCstClassName("CST").has_value());
  EXPECT_FALSE(ParseCstClassName("CST()").has_value());
  EXPECT_FALSE(ParseCstClassName("CST(x)").has_value());
  EXPECT_FALSE(ParseCstClassName("Desk").has_value());
}

TEST(SchemaTest, BuiltinSubclassing) {
  Schema s;
  EXPECT_TRUE(s.IsSubclass("int", "real"));  // 20 has the properties of 20.0
  EXPECT_FALSE(s.IsSubclass("real", "int"));
  EXPECT_TRUE(s.IsSubclass("CST(3)", "CST"));
  EXPECT_FALSE(s.IsSubclass("CST", "CST(3)"));
  EXPECT_TRUE(s.IsSubclass("string", "string"));
}

TEST(SchemaTest, DuplicateClassRejected) {
  Schema s;
  ClassDef c;
  c.name = "A";
  ASSERT_TRUE(s.AddClass(c).ok());
  EXPECT_TRUE(s.AddClass(c).IsAlreadyExists());
  ClassDef builtin;
  builtin.name = "int";
  EXPECT_TRUE(s.AddClass(builtin).IsAlreadyExists());
}

TEST(SchemaTest, UnknownParentRejected) {
  Schema s;
  ClassDef c;
  c.name = "B";
  c.parents = {"Nope"};
  EXPECT_TRUE(s.AddClass(c).IsNotFound());
}

TEST(SchemaTest, UnknownAttributeTargetRejected) {
  Schema s;
  ClassDef c;
  c.name = "C";
  c.attributes = {{"a", false, "Nope", {}}};
  EXPECT_TRUE(s.AddClass(c).IsNotFound());
}

TEST(SchemaTest, CstAttributeNeedsVariables) {
  Schema s;
  ClassDef c;
  c.name = "D";
  c.attributes = {{"ext", false, kCstClass, {}}};
  EXPECT_TRUE(s.AddClass(c).IsInvalidArgument());
  c.attributes = {{"ext", false, kCstClass, {"w", "w"}}};
  EXPECT_TRUE(s.AddClass(c).IsInvalidArgument());
}

TEST(SchemaTest, RenamingArityChecked) {
  Schema s;
  ClassDef target;
  target.name = "Target";
  target.interface_vars = {"x", "y"};
  ASSERT_TRUE(s.AddClass(target).ok());
  ClassDef user;
  user.name = "User";
  user.attributes = {{"t", false, "Target", {"p"}}};  // Arity 1 != 2.
  EXPECT_TRUE(s.AddClass(user).IsTypeError());
  user.attributes = {{"t", false, "Target", {"p", "q"}}};
  EXPECT_TRUE(s.AddClass(user).ok());
}

TEST(SchemaTest, OfficeSchemaIsA) {
  Schema s;
  ASSERT_TRUE(office::BuildOfficeSchema(&s).ok());
  EXPECT_TRUE(s.IsSubclass("Desk", "Office_Object"));
  EXPECT_TRUE(s.IsSubclass("File_Cabinet", "Office_Object"));
  EXPECT_FALSE(s.IsSubclass("Office_Object", "Desk"));
  EXPECT_FALSE(s.IsSubclass("Desk", "File_Cabinet"));
  EXPECT_TRUE(s.IsSubclass("Region", "CST(2)"));
  EXPECT_TRUE(s.IsSubclass("Region", "CST"));
}

TEST(SchemaTest, AttributeInheritance) {
  Schema s;
  ASSERT_TRUE(office::BuildOfficeSchema(&s).ok());
  // Desk inherits extent from Office_Object.
  auto ext = s.FindAttribute("Desk", "extent");
  ASSERT_TRUE(ext.ok());
  EXPECT_TRUE((*ext)->IsCst());
  EXPECT_EQ((*ext)->variables, (std::vector<std::string>{"w", "z"}));
  // Desk's own drawer attribute renames Drawer's interface.
  auto drawer = s.FindAttribute("Desk", "drawer");
  ASSERT_TRUE(drawer.ok());
  EXPECT_EQ((*drawer)->target_class, "Drawer");
  EXPECT_EQ((*drawer)->variables, (std::vector<std::string>{"p", "q"}));
  // Office_Object itself has no drawer.
  EXPECT_TRUE(s.FindAttribute("Office_Object", "drawer").status().IsNotFound());
}

TEST(SchemaTest, SetValuedAttribute) {
  Schema s;
  ASSERT_TRUE(office::BuildOfficeSchema(&s).ok());
  auto dc = s.FindAttribute("File_Cabinet", "drawer_center");
  ASSERT_TRUE(dc.ok());
  EXPECT_TRUE((*dc)->set_valued);
  auto desk_dc = s.FindAttribute("Desk", "drawer_center");
  ASSERT_TRUE(desk_dc.ok());
  EXPECT_FALSE((*desk_dc)->set_valued);
}

TEST(SchemaTest, AllAttributesIncludesInherited) {
  Schema s;
  ASSERT_TRUE(office::BuildOfficeSchema(&s).ok());
  auto attrs = s.AllAttributes("Desk");
  ASSERT_TRUE(attrs.ok());
  std::set<std::string> names;
  for (const AttributeDef* a : *attrs) names.insert(a->name);
  EXPECT_TRUE(names.count("drawer"));
  EXPECT_TRUE(names.count("drawer_center"));
  EXPECT_TRUE(names.count("extent"));       // Inherited.
  EXPECT_TRUE(names.count("translation"));  // Inherited.
  EXPECT_TRUE(names.count("color"));        // Inherited.
}

TEST(SchemaTest, ConcurrentFirstLookupOfBuiltins) {
  // Read queries look built-in classes up from several threads at once
  // (method resolution, path walking), and the first lookup of a name
  // materializes its definition. CI runs this under TSan.
  Schema s;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&s, &wrong] {
      for (size_t n = 0; n < 200; ++n) {
        const std::string name = CstClassName(n);
        Result<const ClassDef*> def = s.GetClass(name);
        if (!def.ok() || (*def)->name != name ||
            (*def)->parents != std::vector<std::string>{kCstClass}) {
          wrong.fetch_add(1);
        }
        for (const char* primitive : {"int", "real", "string", "bool"}) {
          Result<const ClassDef*> p = s.GetClass(primitive);
          if (!p.ok() || (*p)->name != primitive) wrong.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(SchemaTest, AncestorsAreTheClosure) {
  Schema s;
  ASSERT_TRUE(office::BuildOfficeSchema(&s).ok());
  EXPECT_EQ(s.Ancestors("Desk"),
            (std::set<std::string>{"Desk", "Office_Object"}));
  EXPECT_EQ(s.Ancestors("Region"),
            (std::set<std::string>{"Region", "CST(2)", "CST"}));
  EXPECT_EQ(s.Ancestors("int"), (std::set<std::string>{"int", "real"}));
  EXPECT_EQ(s.Ancestors("CST(3)"), (std::set<std::string>{"CST(3)", "CST"}));
  EXPECT_EQ(s.Ancestors("Nope"), (std::set<std::string>{"Nope"}));
  EXPECT_TRUE(s.IsSubclass("Nope", "Nope"));
  EXPECT_FALSE(s.IsSubclass("Nope", "Desk"));
}

TEST(SchemaTest, SubclassesOf) {
  Schema s;
  ASSERT_TRUE(office::BuildOfficeSchema(&s).ok());
  auto subs = s.SubclassesOf("Office_Object");
  std::set<std::string> names(subs.begin(), subs.end());
  EXPECT_TRUE(names.count("Office_Object"));
  EXPECT_TRUE(names.count("Desk"));
  EXPECT_TRUE(names.count("File_Cabinet"));
  EXPECT_FALSE(names.count("Drawer"));
}

}  // namespace
}  // namespace lyric
