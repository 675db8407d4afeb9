#include "storage/serializer.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

#include "query/formula_builder.h"
#include "query/lexer.h"
#include "query/parser.h"
#include "storage/file_io.h"
#include "util/fault.h"
#include "util/string_util.h"

namespace lyric {

namespace {

// ---------------------------------------------------------------------------
// Dumping
// ---------------------------------------------------------------------------

// `text` as a string literal the lexer reads back: quoted, with each
// quote doubled.
std::string QuotedLiteral(const std::string& text) {
  std::string out = "'";
  for (char c : text) out += c == '\'' ? "''" : std::string(1, c);
  return out + "'";
}

// ---------------------------------------------------------------------------
// Loading
// ---------------------------------------------------------------------------

class Loader {
 public:
  Loader(std::vector<Token> tokens, Database* db)
      : tokens_(std::move(tokens)), db_(db) {}

  Status Run() {
    // Phase 1: parse everything; inserts happen as declarations appear,
    // attribute writes are deferred so forward references resolve.
    while (!At(TokenKind::kEnd)) {
      LYRIC_ASSIGN_OR_RETURN(std::string word, ExpectIdent());
      std::string lower = ToLower(word);
      if (lower == "class") {
        LYRIC_RETURN_NOT_OK(ParseClass());
      } else if (lower == "object") {
        LYRIC_RETURN_NOT_OK(ParseObject());
      } else if (lower == "instanceof") {
        LYRIC_RETURN_NOT_OK(ParseInstanceOf());
      } else {
        return Err("expected CLASS, OBJECT, or INSTANCEOF, found '" + word +
                   "'");
      }
    }
    // Phase 2: apply deferred attribute writes.
    for (auto& [oid, attr, value] : pending_attrs_) {
      LYRIC_RETURN_NOT_OK(db_->SetAttribute(oid, attr, std::move(value)));
    }
    return Status::OK();
  }

 private:
  const Token& Cur() const { return tokens_[pos_]; }
  bool At(TokenKind k) const { return Cur().kind == k; }
  bool Accept(TokenKind k) {
    if (!At(k)) return false;
    ++pos_;
    return true;
  }
  Status Expect(TokenKind k) {
    if (!Accept(k)) {
      return Err(std::string("expected ") + TokenKindToString(k));
    }
    return Status::OK();
  }
  Result<std::string> ExpectIdent() {
    // Every keyword doubles as an identifier in the dump grammar (a class
    // or attribute may be named `max`, `view`, ...): keyword tokens carry
    // their raw text, so accept any token that lexed from a word.
    if (!Cur().text.empty() && Cur().kind != TokenKind::kNumber &&
        Cur().kind != TokenKind::kString) {
      std::string out = Cur().text;
      ++pos_;
      return out;
    }
    return Err("expected identifier");
  }
  Status Err(const std::string& msg) const {
    return Status::ParseError(msg + " at offset " +
                              std::to_string(Cur().offset) +
                              " in database dump");
  }

  Result<std::string> ParseClassName() {
    // A name that is not a word was quoted by Serializer::ClassNameText.
    if (At(TokenKind::kString)) return tokens_[pos_++].text;
    LYRIC_ASSIGN_OR_RETURN(std::string name, ExpectIdent());
    if (name == "CST" && At(TokenKind::kLParen) &&
        tokens_[pos_ + 1].kind == TokenKind::kNumber) {
      ++pos_;
      std::string digits = Cur().text;
      ++pos_;
      LYRIC_RETURN_NOT_OK(Expect(TokenKind::kRParen));
      return "CST(" + digits + ")";
    }
    return name;
  }

  Result<std::vector<std::string>> ParseVarList() {
    LYRIC_RETURN_NOT_OK(Expect(TokenKind::kLParen));
    std::vector<std::string> out;
    if (!At(TokenKind::kRParen)) {
      for (;;) {
        LYRIC_ASSIGN_OR_RETURN(std::string v, ExpectIdent());
        out.push_back(std::move(v));
        if (!Accept(TokenKind::kComma)) break;
      }
    }
    LYRIC_RETURN_NOT_OK(Expect(TokenKind::kRParen));
    return out;
  }

  Status ParseClass() {
    ClassDef def;
    LYRIC_ASSIGN_OR_RETURN(def.name, ParseClassName());
    if (At(TokenKind::kLParen)) {
      LYRIC_ASSIGN_OR_RETURN(def.interface_vars, ParseVarList());
    }
    if (At(TokenKind::kIdent) && ToLower(Cur().text) == "isa") {
      ++pos_;
      for (;;) {
        LYRIC_ASSIGN_OR_RETURN(std::string p, ParseClassName());
        def.parents.push_back(std::move(p));
        if (!Accept(TokenKind::kComma)) break;
      }
    }
    // '{' attrs '}' — attrs use LBracket? No: braces are not tokens; use
    // the bracket tokens we have: '[' ']'. The dump writes '[' ']'.
    LYRIC_RETURN_NOT_OK(Expect(TokenKind::kLBracket));
    while (!Accept(TokenKind::kRBracket)) {
      AttributeDef attr;
      LYRIC_ASSIGN_OR_RETURN(attr.name, ExpectIdent());
      if (Accept(TokenKind::kStar)) attr.set_valued = true;
      // ':' is not a token either; the dump uses '=>' for the signature
      // arrow, mirroring the paper.
      LYRIC_RETURN_NOT_OK(Expect(TokenKind::kArrow));
      LYRIC_ASSIGN_OR_RETURN(std::string target, ParseClassName());
      if (target == "CST") {
        attr.target_class = kCstClass;
        LYRIC_ASSIGN_OR_RETURN(attr.variables, ParseVarList());
      } else {
        attr.target_class = std::move(target);
        if (At(TokenKind::kLParen)) {
          LYRIC_ASSIGN_OR_RETURN(attr.variables, ParseVarList());
        }
      }
      LYRIC_RETURN_NOT_OK(Expect(TokenKind::kSemicolon));
      def.attributes.push_back(std::move(attr));
    }
    return db_->AddClass(std::move(def));
  }

  Result<Oid> ParseOid() {
    if (At(TokenKind::kNumber)) {
      Rational num = Cur().number;
      ++pos_;
      if (Accept(TokenKind::kSlash)) {
        if (!At(TokenKind::kNumber)) return Err("expected denominator");
        Rational den = Cur().number;
        ++pos_;
        return Oid::Real(num / den);
      }
      return num.IsInteger() ? Oid::Int(num.num().ToInt64().ValueOr(0))
                             : Oid::Real(num);
    }
    if (Accept(TokenKind::kMinus)) {
      if (!At(TokenKind::kNumber)) return Err("expected number after '-'");
      Rational num = Cur().number;
      ++pos_;
      if (Accept(TokenKind::kSlash)) {
        if (!At(TokenKind::kNumber)) return Err("expected denominator");
        Rational den = Cur().number;
        ++pos_;
        return Oid::Real(-(num / den));
      }
      return num.IsInteger() ? Oid::Int(-num.num().ToInt64().ValueOr(0))
                             : Oid::Real(-num);
    }
    if (At(TokenKind::kString)) {
      std::string s = Cur().text;
      ++pos_;
      return Oid::Str(std::move(s));
    }
    if (Accept(TokenKind::kTrue)) return Oid::Bool(true);
    if (Accept(TokenKind::kFalse)) return Oid::Bool(false);
    // Identifier: symbol or functional oid.
    LYRIC_ASSIGN_OR_RETURN(std::string name, ExpectIdent());
    if (Accept(TokenKind::kLParen)) {
      std::vector<Oid> args;
      if (!At(TokenKind::kRParen)) {
        for (;;) {
          LYRIC_ASSIGN_OR_RETURN(Oid arg, ParseOid());
          args.push_back(std::move(arg));
          if (!Accept(TokenKind::kComma)) break;
        }
      }
      LYRIC_RETURN_NOT_OK(Expect(TokenKind::kRParen));
      return Oid::Func(std::move(name), std::move(args));
    }
    return Oid::Symbol(std::move(name));
  }

  Result<Oid> ParseValueOid() {
    // CST <projection formula>.
    if (At(TokenKind::kIdent) && Cur().text == "CST") {
      ++pos_;
      LYRIC_ASSIGN_OR_RETURN(ast::Formula f,
                             ParseFormulaPrefix(tokens_, &pos_));
      if (f.kind != ast::Formula::Kind::kProject) {
        return Err("CST value must be a projection formula");
      }
      std::set<std::string> no_vars;
      FormulaBuilder fb(db_, &no_vars);
      LYRIC_ASSIGN_OR_RETURN(CstObject obj,
                             fb.BuildProjectionObject(f, Binding{},
                                                      /*eager=*/false));
      return db_->InternCst(obj);
    }
    return ParseOid();
  }

  Result<Value> ParseValue() {
    // Sets use bracket tokens (the dump writes [a, b]).
    if (Accept(TokenKind::kLBracket)) {
      std::vector<Oid> elems;
      if (!At(TokenKind::kRBracket)) {
        for (;;) {
          LYRIC_ASSIGN_OR_RETURN(Oid e, ParseValueOid());
          elems.push_back(std::move(e));
          if (!Accept(TokenKind::kComma)) break;
        }
      }
      LYRIC_RETURN_NOT_OK(Expect(TokenKind::kRBracket));
      return Value::Set(std::move(elems));
    }
    LYRIC_ASSIGN_OR_RETURN(Oid oid, ParseValueOid());
    return Value::Scalar(std::move(oid));
  }

  Status ParseObject() {
    LYRIC_ASSIGN_OR_RETURN(Oid oid, ParseOid());
    LYRIC_RETURN_NOT_OK(Expect(TokenKind::kArrow));
    LYRIC_ASSIGN_OR_RETURN(std::string cls, ParseClassName());
    LYRIC_RETURN_NOT_OK(db_->Insert(oid, cls));
    LYRIC_RETURN_NOT_OK(Expect(TokenKind::kLBracket));
    while (!Accept(TokenKind::kRBracket)) {
      LYRIC_ASSIGN_OR_RETURN(std::string attr, ExpectIdent());
      LYRIC_RETURN_NOT_OK(Expect(TokenKind::kEq));
      LYRIC_ASSIGN_OR_RETURN(Value value, ParseValue());
      LYRIC_RETURN_NOT_OK(Expect(TokenKind::kSemicolon));
      pending_attrs_.emplace_back(oid, std::move(attr), std::move(value));
    }
    return Status::OK();
  }

  Status ParseInstanceOf() {
    LYRIC_ASSIGN_OR_RETURN(Oid oid, ParseValueOid());
    LYRIC_RETURN_NOT_OK(Expect(TokenKind::kArrow));
    LYRIC_ASSIGN_OR_RETURN(std::string cls, ParseClassName());
    LYRIC_RETURN_NOT_OK(Expect(TokenKind::kSemicolon));
    return db_->AddInstanceOf(oid, cls);
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  Database* db_;
  std::vector<std::tuple<Oid, std::string, Value>> pending_attrs_;
};

}  // namespace

std::string Serializer::ClassNameText(const std::string& name) {
  // A word the lexer reads as one token: [A-Za-z_@][A-Za-z0-9_@#]*.
  const auto in_word = [](unsigned char c) {
    return std::isalnum(c) || c == '_' || c == '@' || c == '#';
  };
  const bool word = !name.empty() && name[0] != '#' &&
                    !std::isdigit(static_cast<unsigned char>(name[0])) &&
                    std::all_of(name.begin(), name.end(), in_word);
  if (word || ParseCstClassName(name).has_value()) return name;
  return QuotedLiteral(name);
}

std::string Serializer::OidText(const Oid& oid) {
  switch (oid.kind()) {
    case OidKind::kString:
      return QuotedLiteral(oid.AsString());
    case OidKind::kFunc: {
      std::string out = oid.AsString() + "(";
      for (size_t i = 0; i < oid.FuncArgs().size(); ++i) {
        if (i > 0) out += ", ";
        out += OidText(oid.FuncArgs()[i]);
      }
      return out + ")";
    }
    default:
      return oid.ToString();
  }
}

Result<std::string> Serializer::ClassText(const ClassDef& def) {
  std::ostringstream out;
  out << "CLASS " << ClassNameText(def.name);
  if (!def.interface_vars.empty()) {
    out << " (" << Join(def.interface_vars, ", ") << ")";
  }
  for (size_t i = 0; i < def.parents.size(); ++i) {
    out << (i == 0 ? " ISA " : ", ") << ClassNameText(def.parents[i]);
  }
  out << " [\n";
  for (const AttributeDef& attr : def.attributes) {
    out << "  " << attr.name << (attr.set_valued ? "*" : "") << " => ";
    if (attr.IsCst()) {
      out << "CST (" << Join(attr.variables, ", ") << ")";
    } else {
      out << ClassNameText(attr.target_class);
      if (!attr.variables.empty()) {
        out << " (" << Join(attr.variables, ", ") << ")";
      }
    }
    out << ";\n";
  }
  out << "]\n";
  return out.str();
}

Result<std::string> Serializer::ValueText(const Database& db,
                                          const Value& value) {
  auto one = [&db](const Oid& oid) -> Result<std::string> {
    if (oid.IsCst()) {
      // The canonical string is already a parseable projection formula.
      LYRIC_ASSIGN_OR_RETURN(CstObject obj, db.GetCst(oid));
      LYRIC_ASSIGN_OR_RETURN(std::string canonical, obj.CanonicalString());
      return "CST " + canonical;
    }
    return OidText(oid);
  };
  if (value.is_scalar()) return one(value.scalar());
  std::vector<std::string> parts;
  for (const Oid& e : value.elements()) {
    LYRIC_ASSIGN_OR_RETURN(std::string t, one(e));
    parts.push_back(std::move(t));
  }
  // Sets use brackets: braces are not in the lexer's alphabet.
  return "[" + Join(parts, ", ") + "]";
}

Result<std::string> Serializer::InstanceOfLine(const Database& db,
                                               const Oid& oid,
                                               const std::string& class_name) {
  if (oid.IsCst()) {
    LYRIC_ASSIGN_OR_RETURN(CstObject obj, db.GetCst(oid));
    LYRIC_ASSIGN_OR_RETURN(std::string canonical, obj.CanonicalString());
    return "INSTANCEOF CST " + canonical + " => " +
           ClassNameText(class_name) + ";\n";
  }
  return "INSTANCEOF " + OidText(oid) + " => " + ClassNameText(class_name) +
         ";\n";
}

Result<std::string> Serializer::DumpDatabase(const Database& db) {
  std::ostringstream out;
  out << "-- lyric database dump v1\n";
  // Classes, in registration order (parents always precede children).
  for (const std::string& name : db.schema().ClassNames()) {
    LYRIC_ASSIGN_OR_RETURN(const ClassDef* def, db.schema().GetClass(name));
    LYRIC_ASSIGN_OR_RETURN(std::string text, ClassText(*def));
    out << text;
  }
  // Objects.
  for (const auto& [oid, rec] : db.objects()) {
    out << "OBJECT " << OidText(oid) << " => "
        << ClassNameText(rec.class_name) << " [\n";
    for (const auto& [attr, value] : rec.attrs) {
      LYRIC_ASSIGN_OR_RETURN(std::string vt, ValueText(db, value));
      out << "  " << attr << " = " << vt << ";\n";
    }
    out << "]\n";
  }
  // Extra instance-of facts.
  for (const auto& [oid, classes] : db.extra_instance_of()) {
    for (const std::string& cls : classes) {
      LYRIC_ASSIGN_OR_RETURN(std::string line, InstanceOfLine(db, oid, cls));
      out << line;
    }
  }
  return out.str();
}

Status Serializer::LoadDatabase(const std::string& text, Database* db) {
  if (db->ObjectCount() != 0 || !db->schema().ClassNames().empty()) {
    return Status::InvalidArgument(
        "LoadDatabase requires an empty database");
  }
  // Typed kUnavailable: an injected transport failure is transient by
  // construction — nothing was read — so RetryPolicy may retry it.
  if (fault::Enabled() && fault::Inject(fault::kSiteSerializer)) {
    return Status::Unavailable("injected fault: serializer load");
  }
  LYRIC_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(text));
  // Parse into a scratch database so a truncated or corrupted dump
  // rejects cleanly: the caller's database is only touched after the
  // whole payload parsed and applied (all-or-nothing).
  Database scratch;
  Loader loader(std::move(tokens), &scratch);
  LYRIC_RETURN_NOT_OK(loader.Run());
  *db = std::move(scratch);
  return Status::OK();
}

Status Serializer::SaveToFile(const Database& db, const std::string& path) {
  if (fault::Enabled() && fault::Inject(fault::kSiteSerializer)) {
    return Status::Unavailable("injected fault: serializer save");
  }
  LYRIC_ASSIGN_OR_RETURN(std::string text, DumpDatabase(db));
  // Crash-safe replacement: temp file + fsync + atomic rename. A save
  // interrupted at any byte leaves the previous dump intact.
  return storage::AtomicWriteFile(path, text);
}

Status Serializer::LoadFromFile(const std::string& path, Database* db) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open '" + path + "' for reading");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return LoadDatabase(buf.str(), db);
}

}  // namespace lyric
