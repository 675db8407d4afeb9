#include "office/office_db.h"

namespace lyric {
namespace office {

namespace {

LinearExpr V(const char* name) {
  return LinearExpr::Var(Variable::Intern(name));
}
LinearExpr C(int64_t v) { return LinearExpr::Constant(Rational(v)); }

std::vector<VarId> Vars(std::initializer_list<const char*> names) {
  std::vector<VarId> out;
  for (const char* n : names) out.push_back(Variable::Intern(n));
  return out;
}

// Registers the Figure 1 classes through `schema`'s AddClass: a bare
// Schema, or a Database, which records each class in its change set.
template <typename ClassRegistry>
Status AddOfficeClasses(ClassRegistry* schema) {
  {
    ClassDef office_object;
    office_object.name = "Office_Object";
    office_object.interface_vars = {"x", "y"};
    office_object.attributes = {
        {"name", false, kStringClass, {}},
        {"color", false, kStringClass, {}},
        {"extent", false, kCstClass, {"w", "z"}},
        {"translation", false, kCstClass, {"w", "z", "x", "y", "u", "v"}},
    };
    LYRIC_RETURN_NOT_OK(schema->AddClass(office_object));
  }
  {
    ClassDef drawer;
    drawer.name = "Drawer";
    drawer.interface_vars = {"x", "y"};
    drawer.attributes = {
        {"color", false, kStringClass, {}},
        {"extent", false, kCstClass, {"w", "z"}},
        {"translation", false, kCstClass, {"w", "z", "x", "y", "u", "v"}},
    };
    LYRIC_RETURN_NOT_OK(schema->AddClass(drawer));
  }
  {
    ClassDef desk;
    desk.name = "Desk";
    desk.parents = {"Office_Object"};
    desk.attributes = {
        {"drawer_center", false, kCstClass, {"p", "q"}},
        {"drawer", false, "Drawer", {"p", "q"}},
    };
    LYRIC_RETURN_NOT_OK(schema->AddClass(desk));
  }
  {
    ClassDef cabinet;
    cabinet.name = "File_Cabinet";
    cabinet.parents = {"Office_Object"};
    cabinet.attributes = {
        {"drawer_center", true, kCstClass, {"p1", "q1"}},
        {"drawer", true, "Drawer", {"p1", "q1"}},
    };
    LYRIC_RETURN_NOT_OK(schema->AddClass(cabinet));
  }
  {
    ClassDef in_room;
    in_room.name = "Object_in_Room";
    in_room.attributes = {
        {"cat_number", false, kStringClass, {}},
        {"inv_number", false, kStringClass, {}},
        {"location", false, kCstClass, {"x", "y"}},
        {"catalog_object", false, "Office_Object", {"x", "y"}},
    };
    LYRIC_RETURN_NOT_OK(schema->AddClass(in_room));
  }
  // Region: a user subclass of CST(2) used by the §4.1 view example.
  {
    ClassDef region;
    region.name = "Region";
    region.parents = {CstClassName(2)};
    LYRIC_RETURN_NOT_OK(schema->AddClass(region));
  }
  return Status::OK();
}

}  // namespace

Status BuildOfficeSchema(Schema* schema) { return AddOfficeClasses(schema); }

CstObject LocationAt(int64_t x, int64_t y) {
  Conjunction c;
  c.Add(LinearConstraint::Eq(V("x"), C(x)));
  c.Add(LinearConstraint::Eq(V("y"), C(y)));
  return CstObject::FromConjunction(Vars({"x", "y"}), c).value();
}

CstObject BoxExtent(int64_t half_w, int64_t half_z) {
  Conjunction c;
  c.Add(LinearConstraint::Ge(V("w"), C(-half_w)));
  c.Add(LinearConstraint::Le(V("w"), C(half_w)));
  c.Add(LinearConstraint::Ge(V("z"), C(-half_z)));
  c.Add(LinearConstraint::Le(V("z"), C(half_z)));
  return CstObject::FromConjunction(Vars({"w", "z"}), c).value();
}

CstObject StandardTranslation() {
  Conjunction c;
  c.Add(LinearConstraint::Eq(V("u"), V("x") + V("w")));
  c.Add(LinearConstraint::Eq(V("v"), V("y") + V("z")));
  return CstObject::FromConjunction(Vars({"w", "z", "x", "y", "u", "v"}), c)
      .value();
}

CstObject StandardDrawerCenter() {
  Conjunction c;
  c.Add(LinearConstraint::Eq(V("p"), C(-2)));
  c.Add(LinearConstraint::Ge(V("q"), C(-2)));
  c.Add(LinearConstraint::Le(V("q"), C(0)));
  return CstObject::FromConjunction(Vars({"p", "q"}), c).value();
}

Result<OfficeIds> BuildOfficeDatabase(Database* db) {
  LYRIC_RETURN_NOT_OK(AddOfficeClasses(db));

  OfficeIds ids;
  ids.the_drawer = Oid::Symbol("std_drawer");
  ids.standard_desk = Oid::Symbol("standard_desk");
  ids.my_desk = Oid::Symbol("my_desk");

  LYRIC_RETURN_NOT_OK(db->Insert(ids.the_drawer, "Drawer"));
  LYRIC_RETURN_NOT_OK(db->SetAttribute(ids.the_drawer, "color",
                                       Value::Scalar(Oid::Str("red"))));
  LYRIC_RETURN_NOT_OK(
      db->SetCstAttribute(ids.the_drawer, "extent", BoxExtent(1, 1)).status());
  LYRIC_RETURN_NOT_OK(
      db->SetCstAttribute(ids.the_drawer, "translation", StandardTranslation())
          .status());

  LYRIC_RETURN_NOT_OK(db->Insert(ids.standard_desk, "Desk"));
  LYRIC_RETURN_NOT_OK(db->SetAttribute(
      ids.standard_desk, "name", Value::Scalar(Oid::Str("standard desk"))));
  LYRIC_RETURN_NOT_OK(db->SetAttribute(ids.standard_desk, "color",
                                       Value::Scalar(Oid::Str("red"))));
  LYRIC_RETURN_NOT_OK(
      db->SetCstAttribute(ids.standard_desk, "extent", BoxExtent(4, 2))
          .status());
  LYRIC_RETURN_NOT_OK(db->SetCstAttribute(ids.standard_desk, "translation",
                                          StandardTranslation())
                          .status());
  LYRIC_RETURN_NOT_OK(db->SetCstAttribute(ids.standard_desk, "drawer_center",
                                          StandardDrawerCenter())
                          .status());
  LYRIC_RETURN_NOT_OK(db->SetAttribute(ids.standard_desk, "drawer",
                                       Value::Scalar(ids.the_drawer)));

  LYRIC_RETURN_NOT_OK(db->Insert(ids.my_desk, "Object_in_Room"));
  LYRIC_RETURN_NOT_OK(db->SetAttribute(ids.my_desk, "cat_number",
                                       Value::Scalar(Oid::Str("CAT-11"))));
  LYRIC_RETURN_NOT_OK(db->SetAttribute(ids.my_desk, "inv_number",
                                       Value::Scalar(Oid::Str("22-354"))));
  LYRIC_RETURN_NOT_OK(
      db->SetCstAttribute(ids.my_desk, "location", LocationAt(6, 4))
          .status());
  LYRIC_RETURN_NOT_OK(db->SetAttribute(ids.my_desk, "catalog_object",
                                       Value::Scalar(ids.standard_desk)));
  return ids;
}

Status AddScaledDesks(Database* db, int num_desks, uint64_t seed,
                      bool share_catalog) {
  // Deterministic linear-congruential positions inside the 20 x 10 room.
  uint64_t state = seed * 6364136223846793005ull + 1442695040888963407ull;
  auto next = [&state](uint64_t mod) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return (state >> 33) % mod;
  };
  Oid shared_catalog = Oid::Symbol("standard_desk");
  if (!db->HasObject(shared_catalog)) {
    share_catalog = false;
  }
  for (int i = 0; i < num_desks; ++i) {
    Oid catalog = shared_catalog;
    if (!share_catalog) {
      catalog = Oid::Func("catalog_desk", {Oid::Int(i)});
      LYRIC_RETURN_NOT_OK(db->Insert(catalog, "Desk"));
      LYRIC_RETURN_NOT_OK(db->SetAttribute(
          catalog, "name",
          Value::Scalar(Oid::Str("desk model " + std::to_string(i)))));
      LYRIC_RETURN_NOT_OK(db->SetAttribute(
          catalog, "color",
          Value::Scalar(Oid::Str(i % 3 == 0 ? "red" : "gray"))));
      LYRIC_RETURN_NOT_OK(db->SetCstAttribute(
                              catalog, "extent",
                              BoxExtent(2 + static_cast<int64_t>(next(3)),
                                        1 + static_cast<int64_t>(next(2))))
                              .status());
      LYRIC_RETURN_NOT_OK(
          db->SetCstAttribute(catalog, "translation", StandardTranslation())
              .status());
      LYRIC_RETURN_NOT_OK(db->SetCstAttribute(catalog, "drawer_center",
                                              StandardDrawerCenter())
                              .status());
      Oid drawer = Oid::Func("drawer_of", {Oid::Int(i)});
      LYRIC_RETURN_NOT_OK(db->Insert(drawer, "Drawer"));
      LYRIC_RETURN_NOT_OK(db->SetAttribute(drawer, "color",
                                           Value::Scalar(Oid::Str("gray"))));
      LYRIC_RETURN_NOT_OK(
          db->SetCstAttribute(drawer, "extent", BoxExtent(1, 1)).status());
      LYRIC_RETURN_NOT_OK(
          db->SetCstAttribute(drawer, "translation", StandardTranslation())
              .status());
      LYRIC_RETURN_NOT_OK(
          db->SetAttribute(catalog, "drawer", Value::Scalar(drawer)));
    }
    Oid obj = Oid::Func("desk_in_room", {Oid::Int(i), Oid::Int(
                                             static_cast<int64_t>(seed))});
    LYRIC_RETURN_NOT_OK(db->Insert(obj, "Object_in_Room"));
    LYRIC_RETURN_NOT_OK(db->SetAttribute(
        obj, "cat_number",
        Value::Scalar(Oid::Str("CAT-" + std::to_string(i % 7)))));
    LYRIC_RETURN_NOT_OK(db->SetAttribute(
        obj, "inv_number",
        Value::Scalar(Oid::Str("inv-" + std::to_string(i)))));
    int64_t x = 2 + static_cast<int64_t>(next(17));
    int64_t y = 2 + static_cast<int64_t>(next(7));
    LYRIC_RETURN_NOT_OK(
        db->SetCstAttribute(obj, "location", LocationAt(x, y)).status());
    LYRIC_RETURN_NOT_OK(
        db->SetAttribute(obj, "catalog_object", Value::Scalar(catalog)));
  }
  return Status::OK();
}

}  // namespace office
}  // namespace lyric
