// Textual persistence for constraint object bases.
//
// A dump is a self-contained, human-readable catalog:
//
//   -- lyric database dump v1
//   CLASS Office_Object (x, y) {
//     name : string;
//     extent : CST(w, z);
//   }
//   CLASS Desk ISA Office_Object {
//     drawer : Drawer (p, q);
//     drawer_center : CST(p, q);
//   }
//   OBJECT my_desk : Object_in_Room {
//     inv_number = '22-354';
//     location = CST ((x, y) | x = 6 and y = 4);
//     catalog_object = standard_desk;
//   }
//   INSTANCEOF <cst-or-object oid> : Region;
//
// Constraint values serialize through CstObject::CanonicalString and load
// back through the query layer's formula parser (including quantified
// bodies, `exists @b0 . (...)`), so a dump/load round trip preserves the
// point sets and the CST-oid identities exactly.

#ifndef LYRIC_STORAGE_SERIALIZER_H_
#define LYRIC_STORAGE_SERIALIZER_H_

#include <string>

#include "object/database.h"

namespace lyric {

/// Dump/load entry points. Methods (C++ callables) are not serialized;
/// re-register them after loading.
class Serializer {
 public:
  /// Renders the schema, every stored object, every interned CST object
  /// in use, and the extra instance-of facts.
  static Result<std::string> DumpDatabase(const Database& db);

  /// Loads a dump produced by DumpDatabase into an empty database.
  static Status LoadDatabase(const std::string& text, Database* db);

  /// File convenience wrappers. SaveToFile is crash-safe: the dump is
  /// written to a temp file, fsynced, and renamed over `path` (plus a
  /// directory fsync), so an interrupted save never clobbers an
  /// existing good dump.
  static Status SaveToFile(const Database& db, const std::string& path);
  static Status LoadFromFile(const std::string& path, Database* db);

  // -- dump fragments ------------------------------------------------------
  // The paged storage engine (storage/paged_store.h) stores records in
  // the dump grammar, one fragment per schema/object/attribute entry,
  // and reassembles them into a full dump for LoadDatabase. These
  // helpers are the single source of truth for that grammar;
  // DumpDatabase composes the same pieces.

  /// A class name as every class-name position writes it: an identifier
  /// or CST(n) raw, anything else (a higher-order view named by a CST,
  /// number or functional oid) as a quoted string, which those positions
  /// also read.
  static std::string ClassNameText(const std::string& name);
  /// An oid as the dump grammar writes it, and as the store's object and
  /// attribute keys name it: symbols bare, funcs f(...), numbers as num or
  /// num/den, strings as literals with each quote doubled (also inside a
  /// func's arguments), which the loader reads back as the same oid.
  static std::string OidText(const Oid& oid);
  /// The "CLASS name ... [ ... ]\n" block for one class definition.
  static Result<std::string> ClassText(const ClassDef& def);
  /// An attribute value in the dump's value grammar (oids bare, CST
  /// objects as "CST <canonical projection>", sets bracketed).
  static Result<std::string> ValueText(const Database& db,
                                       const Value& value);
  /// A full "INSTANCEOF <oid-or-CST> => class;\n" line.
  static Result<std::string> InstanceOfLine(const Database& db,
                                            const Oid& oid,
                                            const std::string& class_name);
};

}  // namespace lyric

#endif  // LYRIC_STORAGE_SERIALIZER_H_
