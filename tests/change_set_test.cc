// Oracles for the write-through path and the maintained class extents.
//
// Change-set oracle: seeded sequences of CREATE VIEWs (over stored
// objects, empty, OID FUNCTION, over CST oids, one class per binding)
// mixed with the Database mutators (Insert, SetAttribute,
// ClearAttribute, DeleteObject, AddInstanceOf) are written through with
// PagedStore::ApplyChanges and WaitDurable, the calls lyric_serverd
// makes. After every
// write-through, and again after a close, a reopen and more writes, the
// store must export a database that dumps byte-identically to the live
// one, and hold exactly its records.
//
// Extent oracle: after every mutation, Extent and InstanceOf for every
// class (user classes, views, CST, CST(n) and the primitives) must equal
// the full scan the maintained index replaced, kept here as the
// reference, element for element and in order.
//
// Page bound: a CREATE VIEW commits a few page images, however many
// views came before it.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "office/office_db.h"
#include "query/evaluator.h"
#include "storage/paged_store.h"
#include "storage/serializer.h"

namespace lyric {
namespace {

using storage::PagedStore;

std::string FreshStorePath(const std::string& name) {
  std::string path = ::testing::TempDir() + "/" + name;
  ::unlink(path.c_str());
  ::unlink(PagedStore::WalPathFor(path).c_str());
  return path;
}

// Appends `db`'s pending changes and waits until they are durable.
Status WriteThrough(PagedStore* store, Database* db) {
  Result<uint64_t> lsn = store->ApplyChanges(*db, db->TakeChanges());
  return lsn.ok() ? store->WaitDurable(*lsn) : lsn.status();
}

// -- the reference scan -----------------------------------------------------

// The recursive, string-keyed IS-A walk that Schema::IsSubclass was.
bool RefIsSubclass(const Schema& schema, const std::string& sub,
                   const std::string& super) {
  if (sub == super) return true;
  if (sub == kIntClass && super == kRealClass) return true;
  if (ParseCstClassName(sub).has_value() && super == kCstClass) return true;
  if (Schema::IsPrimitive(sub) || sub == kCstClass ||
      ParseCstClassName(sub).has_value()) {
    return false;
  }
  Result<const ClassDef*> def = schema.GetClass(sub);
  if (!def.ok()) return false;
  for (const std::string& p : (*def)->parents) {
    if (RefIsSubclass(schema, p, super)) return true;
  }
  return false;
}

bool RefFactMember(const Database& db, const Oid& oid,
                   const std::string& cls) {
  auto it = db.extra_instance_of().find(oid);
  if (it == db.extra_instance_of().end()) return false;
  for (const std::string& c : it->second) {
    if (RefIsSubclass(db.schema(), c, cls)) return true;
  }
  return false;
}

bool RefStoredMember(const Database& db, const Oid& oid,
                     const std::string& cls) {
  auto it = db.objects().find(oid);
  return it != db.objects().end() &&
         RefIsSubclass(db.schema(), it->second.class_name, cls);
}

// Every interned CST oid in canonical order. The store is private, so
// this reads the CST-kind members of Extent("CST") and checks them
// against CstCount: with no duplicates (the CST extent is itself checked
// against the reference) that is exactly the interned set.
std::vector<Oid> AllCstOids(const Database& db) {
  std::vector<Oid> out;
  for (const Oid& oid : db.Extent(kCstClass)) {
    if (oid.IsCst()) out.push_back(oid);
  }
  std::sort(out.begin(), out.end(), [](const Oid& a, const Oid& b) {
    return a.AsString() < b.AsString();
  });
  out.erase(std::unique(out.begin(), out.end()), out.end());
  EXPECT_EQ(out.size(), db.CstCount());
  return out;
}

// Database::Extent as the full scan it was before the index.
std::vector<Oid> RefExtent(const Database& db, const std::string& cls,
                           const std::vector<Oid>& all_cst) {
  std::vector<Oid> out;
  for (const auto& [oid, rec] : db.objects()) {
    if (RefIsSubclass(db.schema(), rec.class_name, cls)) out.push_back(oid);
  }
  for (const auto& [oid, classes] : db.extra_instance_of()) {
    if (RefFactMember(db, oid, cls) && !RefStoredMember(db, oid, cls)) {
      out.push_back(oid);
    }
  }
  auto dim = ParseCstClassName(cls);
  if (dim.has_value() || cls == kCstClass) {
    for (const Oid& oid : all_cst) {
      if (dim.has_value() && db.GetCst(oid).value().Dimension() != *dim) {
        continue;
      }
      if (std::find(out.begin(), out.end(), oid) == out.end()) {
        out.push_back(oid);
      }
    }
  }
  return out;
}

// Database::InstanceOf as it was before the index.
bool RefInstanceOf(const Database& db, const Oid& oid,
                   const std::string& cls) {
  switch (oid.kind()) {
    case OidKind::kInt:
      if (cls == kIntClass || cls == kRealClass) return true;
      break;
    case OidKind::kReal:
      if (cls == kRealClass) return true;
      break;
    case OidKind::kString:
      if (cls == kStringClass) return true;
      break;
    case OidKind::kBool:
      if (cls == kBoolClass) return true;
      break;
    case OidKind::kCst: {
      if (cls == kCstClass) return true;
      auto dim = ParseCstClassName(cls);
      if (dim.has_value()) {
        Result<CstObject> obj = db.GetCst(oid);
        if (obj.ok() && obj->Dimension() == *dim) return true;
      }
      break;
    }
    default:
      break;
  }
  return RefStoredMember(db, oid, cls) || RefFactMember(db, oid, cls);
}

void ExpectExtentsMatchReference(const Database& db, const std::string& at) {
  std::vector<std::string> classes = db.schema().ClassNames();
  for (const char* builtin : {"int", "real", "string", "bool", "CST",
                              "CST(1)", "CST(2)", "CST(6)", "No_Such"}) {
    classes.push_back(builtin);
  }
  const std::vector<Oid> all_cst = AllCstOids(db);
  std::vector<Oid> probes = all_cst;
  for (const auto& [oid, rec] : db.objects()) probes.push_back(oid);
  for (const auto& [oid, facts] : db.extra_instance_of()) {
    probes.push_back(oid);
  }
  for (const Oid& literal :
       {Oid::Int(3), Oid::Str("red"), Oid::Bool(true),
        Oid::Real(Rational(1, 2)), Oid::Symbol("nobody")}) {
    probes.push_back(literal);
  }
  for (const std::string& cls : classes) {
    ASSERT_EQ(db.Extent(cls), RefExtent(db, cls, all_cst))
        << "Extent(" << cls << ") " << at;
    for (const Oid& oid : probes) {
      ASSERT_EQ(db.InstanceOf(oid, cls), RefInstanceOf(db, oid, cls))
          << "InstanceOf(" << oid.ToString() << ", " << cls << ") " << at;
    }
  }
}

// -- the store oracle ---------------------------------------------------------

// One record per class, object, attribute value and instance-of fact.
uint64_t LiveRecordCount(const Database& db) {
  uint64_t n = db.schema().ClassNames().size();
  for (const auto& [oid, rec] : db.objects()) n += 1 + rec.attrs.size();
  for (const auto& [oid, facts] : db.extra_instance_of()) n += facts.size();
  return n;
}

void ExpectStoreMatches(PagedStore* store, const Database& live,
                        const std::string& at) {
  Database exported;
  Status st = store->ExportToDatabase(&exported);
  ASSERT_TRUE(st.ok()) << st << " " << at;
  EXPECT_TRUE(exported.TakeChanges().empty()) << at;
  Result<std::string> want = Serializer::DumpDatabase(live);
  Result<std::string> got = Serializer::DumpDatabase(exported);
  ASSERT_TRUE(want.ok() && got.ok()) << at;
  ASSERT_EQ(*got, *want) << at;
  EXPECT_EQ(store->RecordCount(), LiveRecordCount(live)) << at;
}

/// An axis-aligned box over (x, y) with integer corners in the 20 x 10
/// room.
std::string Box(std::mt19937_64& rng, int64_t w, int64_t h) {
  const int64_t x0 = static_cast<int64_t>(rng() % 20) - 2;
  const int64_t y0 = static_cast<int64_t>(rng() % 10) - 2;
  return "(" + std::to_string(x0) + " <= x and x <= " +
         std::to_string(x0 + w) + " and " + std::to_string(y0) +
         " <= y and y <= " + std::to_string(y0 + h) + ")";
}

/// Office (Figure 2) plus seeded room objects, and three catalog desks
/// with symbol oids so that a view named by its catalog variable makes
/// one class per catalog.
Database MakeDb(uint64_t seed) {
  Database db;
  EXPECT_TRUE(office::BuildOfficeDatabase(&db).ok());
  EXPECT_TRUE(office::AddScaledDesks(&db, 6, seed).ok());
  for (int i = 0; i < 3; ++i) {
    const Oid catalog = Oid::Symbol("catalog_" + std::string(1, 'a' + i));
    EXPECT_TRUE(db.Insert(catalog, "Desk").ok());
    EXPECT_TRUE(
        db.SetCstAttribute(catalog, "extent", office::BoxExtent(2, 1)).ok());
    const Oid placed = Oid::Symbol("placed_" + std::string(1, 'a' + i));
    EXPECT_TRUE(db.Insert(placed, "Object_in_Room").ok());
    EXPECT_TRUE(db.SetCstAttribute(placed, "location",
                                   office::LocationAt(3 + 6 * i, 2 + 3 * i))
                    .ok());
    EXPECT_TRUE(
        db.SetAttribute(placed, "catalog_object", Value::Scalar(catalog))
            .ok());
  }
  return db;
}

/// Stored oids in order, optionally only those whose class IS-A `cls`.
std::vector<Oid> Stored(const Database& db, const std::string& cls = "") {
  std::vector<Oid> out;
  for (const auto& [oid, rec] : db.objects()) {
    if (cls.empty() || db.schema().IsSubclass(rec.class_name, cls)) {
      out.push_back(oid);
    }
  }
  return out;
}

/// One seeded step: a CREATE VIEW or an API mutation. Failures are part
/// of the sequence (a duplicate insert, a view that matches nothing);
/// only what the database then holds matters.
void RandomStep(std::mt19937_64& rng, int step, Database* db) {
  const std::string n = std::to_string(step);
  auto view = [&](const std::string& text) {
    Evaluator ev(db, EvalOptions{});
    Result<ResultSet> r = ev.Execute(text);
    ASSERT_TRUE(r.ok()) << text << "\n -> " << r.status();
  };
  auto pick = [&](const std::vector<Oid>& from) {
    return from[rng() % from.size()];
  };
  const std::vector<Oid> stored = Stored(*db);
  const std::vector<Oid> placed = Stored(*db, "Object_in_Room");
  const std::vector<Oid> catalogs = Stored(*db, "Desk");
  if (placed.empty() || catalogs.empty()) return;
  switch (rng() % 10) {
    case 0:
    case 1:
      view("CREATE VIEW V" + n +
           " AS SUBCLASS OF Object_in_Room SELECT O FROM Object_in_Room O "
           "WHERE O.location[L] and L(x, y) |= " + Box(rng, 8, 5));
      break;
    case 2:  // Matches nothing: no class, no change.
      view("CREATE VIEW Empty" + n +
           " AS SUBCLASS OF Object_in_Room SELECT O FROM Object_in_Room O "
           "WHERE O.location[L] and L(x, y) |= x <= -100");
      break;
    case 3:  // OID FUNCTION: inserts objects and sets their attributes.
      view("CREATE VIEW Pair" + n +
           " AS SUBCLASS OF Object_in_Room SELECT first = O1, second = O2 "
           "FROM Object_in_Room O1, Object_in_Room O2 OID FUNCTION OF O1, O2 "
           "WHERE O1.location[L1] and O2.location[L2] and L1(x, y) |= " +
           Box(rng, 4, 3) + " and L2(x, y) |= " + Box(rng, 4, 3));
      break;
    case 4:  // Over CST oids: instance-of facts on constraint objects.
      view("CREATE VIEW Spot" + n +
           " AS SUBCLASS OF Region SELECT L FROM Object_in_Room O "
           "WHERE O.location[L] and L(x, y) |= " + Box(rng, 10, 6));
      break;
    case 5:  // One class per catalog bound to C.
      view("CREATE VIEW C AS SUBCLASS OF Object_in_Room "
           "SELECT O FROM Object_in_Room O, Desk C "
           "WHERE O.catalog_object[C] and O.location[L] and L(x, y) |= " +
           Box(rng, 14, 8));
      break;
    case 6: {  // Insert, then set attributes.
      const Oid oid = Oid::Symbol("extra_" + n);
      ASSERT_TRUE(db->Insert(oid, "Object_in_Room").ok());
      ASSERT_TRUE(db->SetCstAttribute(oid, "location",
                                      office::LocationAt(
                                          static_cast<int64_t>(rng() % 18),
                                          static_cast<int64_t>(rng() % 9)))
                      .ok());
      ASSERT_TRUE(
          db->SetAttribute(oid, "catalog_object", Value::Scalar(pick(catalogs)))
              .ok());
      break;
    }
    case 7: {  // Move an object, or relabel it.
      const Oid oid = pick(placed);
      if (rng() % 2 == 0) {
        (void)db->SetCstAttribute(
            oid, "location",
            office::LocationAt(static_cast<int64_t>(rng() % 18),
                               static_cast<int64_t>(rng() % 9)));
      } else {
        (void)db->SetAttribute(oid, "inv_number",
                               Value::Scalar(Oid::Str("inv-" + n)));
      }
      break;
    }
    case 8: {  // Clear an attribute, or delete an object (cascading).
      const Oid oid = pick(stored);
      const ObjectRecord& rec = db->objects().at(oid);
      if (rng() % 2 == 0 && !rec.attrs.empty()) {
        ASSERT_TRUE(db->ClearAttribute(oid, rec.attrs.begin()->first).ok());
      } else {
        ASSERT_TRUE(db->DeleteObject(oid, /*force=*/true).ok());
      }
      break;
    }
    case 9: {  // An instance-of fact on a stored object or a CST oid.
      std::vector<std::string> views;
      for (const std::string& cls : db->schema().ClassNames()) {
        if (cls != "Object_in_Room" &&
            db->schema().IsSubclass(cls, "Object_in_Room")) {
          views.push_back(cls);
        }
      }
      std::vector<Oid> locations;
      for (const Oid& oid : placed) {
        Result<Value> loc = db->GetAttribute(oid, "location");
        if (loc.ok()) locations.push_back(loc->scalar());
      }
      if (rng() % 2 == 0 && !views.empty()) {
        ASSERT_TRUE(
            db->AddInstanceOf(pick(placed), views[rng() % views.size()]).ok());
      } else if (!locations.empty()) {
        ASSERT_TRUE(db->AddInstanceOf(pick(locations), "Region").ok());
      }
      break;
    }
  }
}

TEST(ChangeSetOracle, SeededSequencesMatchTheStoreAcrossReopen) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::string path =
        FreshStorePath("change_set_" + std::to_string(seed) + ".lyricpg");
    std::mt19937_64 rng(seed);
    Database db = MakeDb(seed);
    auto store = PagedStore::Open({.path = path}).value();
    ASSERT_TRUE(store->ImportDatabase(db).ok());
    EXPECT_TRUE(db.TakeChanges().empty());
    ExpectStoreMatches(store.get(), db, "after import");
    for (int step = 0; step < 60; ++step) {
      const std::string at = "at step " + std::to_string(step);
      RandomStep(rng, step, &db);
      if (HasFatalFailure()) return;
      ExpectExtentsMatchReference(db, at);
      if (HasFatalFailure()) return;
      // Most steps write through at once; the rest leave their changes
      // pending for the next one, as a failed CREATE VIEW does.
      if (rng() % 4 != 0) {
        ASSERT_TRUE(WriteThrough(store.get(), &db).ok()) << at;
        ExpectStoreMatches(store.get(), db, at);
      }
      if (step == 29 || step == 59) {
        // Close and reopen: the reopened store numbers new facts after
        // its own highest keys.
        ASSERT_TRUE(WriteThrough(store.get(), &db).ok()) << at;
        ASSERT_TRUE(store->Close().ok());
        store = PagedStore::Open({.path = path}).value();
        ExpectStoreMatches(store.get(), db, "reopened " + at);
      }
      if (HasFatalFailure()) return;
    }
    ASSERT_TRUE(store->Close().ok());
  }
}

TEST(ChangeSetOracle, MutatorsRecordTheRecordsTheyTouch) {
  Database db;
  ASSERT_TRUE(office::BuildOfficeDatabase(&db).ok());
  EXPECT_FALSE(db.TakeChanges().empty());
  EXPECT_TRUE(db.TakeChanges().empty());

  const Oid a = Oid::Symbol("a");
  ASSERT_TRUE(db.Insert(a, "Object_in_Room").ok());
  EXPECT_FALSE(db.Insert(a, "Object_in_Room").ok());
  ASSERT_TRUE(db.SetAttribute(a, "inv_number", Value::Scalar(Oid::Str("1")))
                  .ok());
  ASSERT_TRUE(db.ClearAttribute(a, "inv_number").ok());
  ASSERT_TRUE(db.AddInstanceOf(a, "Region").ok());
  ASSERT_TRUE(db.AddInstanceOf(a, "Region").ok());  // Already a fact.
  ClassDef view;
  view.name = "View";
  view.parents = {"Object_in_Room"};
  ASSERT_TRUE(db.AddClass(view).ok());
  EXPECT_FALSE(db.AddClass(view).ok());
  ASSERT_TRUE(db.DeleteObject(a).ok());

  using K = Change::Kind;
  const std::vector<std::pair<K, std::string>> want = {
      {K::kObject, "a"},        {K::kAttribute, "a.inv_number"},
      {K::kAttribute, "a.inv_number"}, {K::kInstanceOf, "a.Region"},
      {K::kClass, ".View"},     {K::kDeleteObject, "a"},
  };
  ChangeSet got = db.TakeChanges();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    const bool has_oid = got[i].kind != K::kClass;
    const std::string subject =
        (has_oid ? got[i].oid.ToString() : std::string()) +
        (got[i].name.empty() ? "" : "." + got[i].name);
    EXPECT_EQ(got[i].kind, want[i].first) << i;
    EXPECT_EQ(subject, want[i].second) << i;
  }
}

// -- page bound ---------------------------------------------------------------

uint64_t CounterValue(const char* name) {
  return obs::Registry::Global().GetCounter(name).value();
}

TEST(ChangeSetOracle, CreateViewWritesFewPagesHoweverManyViewsPrecede) {
  // The durable_mixed database: Figure 2 plus 12 desks on a shared
  // catalog, in a store without fsync (page counts do not depend on it).
  Database db;
  ASSERT_TRUE(office::BuildOfficeDatabase(&db).ok());
  ASSERT_TRUE(office::AddScaledDesks(&db, 12, 7).ok());
  const std::string path = FreshStorePath("change_set_pages.lyricpg");
  auto store = PagedStore::Open({.path = path, .sync_commits = false}).value();
  ASSERT_TRUE(store->ImportDatabase(db).ok());

  std::mt19937_64 rng(11);
  int views = 0;
  auto create_view = [&] {
    Evaluator ev(&db, EvalOptions{});
    const std::string text =
        "CREATE VIEW Bench_View_" + std::to_string(views++) +
        " AS SUBCLASS OF Object_in_Room SELECT O FROM Object_in_Room O "
        "WHERE O.location[L] and L(x, y) |= " + Box(rng, 12, 8);
    ASSERT_TRUE(ev.Execute(text).ok()) << text;
    ASSERT_TRUE(WriteThrough(store.get(), &db).ok());
  };
  // Page images per committed view over the next ten views.
  auto images_per_commit = [&] {
    const uint64_t images = CounterValue("storage.wal.page_images");
    const uint64_t commits = CounterValue("storage.commit.count");
    for (int i = 0; i < 10; ++i) create_view();
    const uint64_t n = CounterValue("storage.commit.count") - commits;
    EXPECT_GE(n, 5u) << "most views should match objects and commit";
    return static_cast<double>(CounterValue("storage.wal.page_images") -
                               images) /
           static_cast<double>(std::max<uint64_t>(n, 1));
  };

  create_view();
  const double early = images_per_commit();
  while (views < 211) {
    create_view();
    if (HasFatalFailure()) return;
  }
  const double late = images_per_commit();
  EXPECT_LE(early, 6.0);
  EXPECT_LE(late, 6.0);
  ExpectStoreMatches(store.get(), db, "after 221 views");
  ASSERT_TRUE(store->Close().ok());
}

}  // namespace
}  // namespace lyric
