#include "query/parser.h"

#include "query/lexer.h"

namespace lyric {

namespace {

using ast::ArithExpr;
using ast::Formula;
using ast::FromItem;
using ast::NameOrLiteral;
using ast::PathExpr;
using ast::Query;
using ast::SelectItem;
using ast::SignatureItem;
using ast::WhereExpr;

// Parentheses, `not`, unary minus, `exists` and projections together nest
// at most this deep (the evaluator's WHERE bound). Each level is a stack
// frame, and backtracking over nested parentheses costs time superlinear
// in the depth, so one deep frame must not crash or stall the parser.
constexpr int kMaxNesting = 64;

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Query> ParseQuery() {
    Query q;
    if (At(TokenKind::kCreate)) {
      LYRIC_RETURN_NOT_OK(ParseViewHeader(&q));
    }
    LYRIC_RETURN_NOT_OK(Expect(TokenKind::kSelect));
    for (;;) {
      LYRIC_ASSIGN_OR_RETURN(SelectItem item, ParseSelectItem());
      q.select.push_back(std::move(item));
      if (!Accept(TokenKind::kComma)) break;
    }
    if (Accept(TokenKind::kSignature)) {
      LYRIC_RETURN_NOT_OK(ParseSignature(&q));
    }
    LYRIC_RETURN_NOT_OK(Expect(TokenKind::kFrom));
    for (;;) {
      FromItem item;
      item.class_offset = Cur().offset;
      LYRIC_ASSIGN_OR_RETURN(item.class_name, ParseClassName());
      item.var_offset = Cur().offset;
      LYRIC_ASSIGN_OR_RETURN(item.var, ExpectIdent());
      q.from.push_back(std::move(item));
      if (!Accept(TokenKind::kComma)) break;
    }
    if (Accept(TokenKind::kOid)) {
      LYRIC_RETURN_NOT_OK(Expect(TokenKind::kFunction));
      LYRIC_RETURN_NOT_OK(Expect(TokenKind::kOf));
      for (;;) {
        q.oid_function_of_offsets.push_back(Cur().offset);
        LYRIC_ASSIGN_OR_RETURN(std::string var, ExpectIdent());
        q.oid_function_of.push_back(std::move(var));
        if (!Accept(TokenKind::kComma)) break;
      }
    }
    if (Accept(TokenKind::kWhere)) {
      LYRIC_ASSIGN_OR_RETURN(auto w, ParseWhereOr());
      q.where = std::move(w);
    }
    Accept(TokenKind::kSemicolon);
    if (!At(TokenKind::kEnd)) {
      return Err("unexpected trailing input");
    }
    return q;
  }

  Result<Formula> ParseStandaloneFormula() {
    LYRIC_ASSIGN_OR_RETURN(auto f, ParseFormulaOr());
    if (!At(TokenKind::kEnd)) return Err("unexpected trailing input");
    return std::move(*f);
  }

  // Parses one formula and reports how many tokens it consumed.
  Result<Formula> ParsePrefixFormula(size_t* consumed) {
    LYRIC_ASSIGN_OR_RETURN(auto f, ParseFormulaOr());
    *consumed = pos_;
    return std::move(*f);
  }

  // Position of the token the last reported error points at, for
  // diagnostics with source spans.
  size_t error_offset() const { return error_offset_; }
  size_t error_length() const { return error_length_; }

  // A nesting overflow decides the outcome even when backtracking
  // swallowed it on the way up.
  template <typename T>
  Result<T> Outcome(Result<T> parsed) const {
    if (!too_deep_.ok()) return too_deep_;
    return parsed;
  }

 private:
  // --- token plumbing -----------------------------------------------------

  const Token& Cur() const { return tokens_[pos_]; }
  bool At(TokenKind kind) const { return Cur().kind == kind; }
  bool Accept(TokenKind kind) {
    if (!At(kind)) return false;
    ++pos_;
    return true;
  }
  Status Expect(TokenKind kind) {
    if (!Accept(kind)) {
      RecordError();
      return Status::ParseError(std::string("expected ") +
                                TokenKindToString(kind) + " but found '" +
                                Describe(Cur()) + "' at offset " +
                                std::to_string(Cur().offset));
    }
    return Status::OK();
  }
  Result<std::string> ExpectIdent() {
    if (!At(TokenKind::kIdent)) {
      RecordError();
      return Status::ParseError("expected identifier but found '" +
                                Describe(Cur()) + "' at offset " +
                                std::to_string(Cur().offset));
    }
    std::string out = Cur().text;
    ++pos_;
    return out;
  }
  Status Err(const std::string& msg) {
    RecordError();
    return Status::ParseError(msg + " at offset " +
                              std::to_string(Cur().offset) + " (near '" +
                              Describe(Cur()) + "')");
  }
  void RecordError() {
    if (!too_deep_.ok()) return;  // The overflow keeps its position.
    error_offset_ = Cur().offset;
    if (Cur().kind == TokenKind::kEnd) {
      error_length_ = 1;
    } else {
      std::string near = Describe(Cur());
      error_length_ = near.empty() ? 1 : near.size();
    }
  }
  static std::string Describe(const Token& t) {
    if (t.kind == TokenKind::kIdent || t.kind == TokenKind::kNumber ||
        t.kind == TokenKind::kString) {
      return t.text;
    }
    return TokenKindToString(t.kind);
  }

  // Runs `parse` one nesting level deeper; `offset` is where the level
  // opens. Past kMaxNesting the parse fails there, and from then on every
  // level fails at once, so backtracking cannot retry other readings.
  template <typename Parse>
  auto Nested(size_t offset, Parse parse) -> decltype(parse()) {
    if (too_deep_.ok() && depth_ >= kMaxNesting) {
      error_offset_ = offset;
      error_length_ = 1;
      too_deep_ = Status::ParseError(
          "nesting deeper than " + std::to_string(kMaxNesting) +
          " levels at offset " + std::to_string(offset));
    }
    if (!too_deep_.ok()) return too_deep_;
    ++depth_;
    auto out = parse();
    --depth_;
    return out;
  }

  // --- pieces --------------------------------------------------------------

  Status ParseViewHeader(Query* q) {
    LYRIC_RETURN_NOT_OK(Expect(TokenKind::kCreate));
    LYRIC_RETURN_NOT_OK(Expect(TokenKind::kView));
    q->view_name_offset = Cur().offset;
    LYRIC_ASSIGN_OR_RETURN(q->view_name, ExpectIdent());
    LYRIC_RETURN_NOT_OK(Expect(TokenKind::kAs));
    LYRIC_RETURN_NOT_OK(Expect(TokenKind::kSubclass));
    LYRIC_RETURN_NOT_OK(Expect(TokenKind::kOf));
    q->view_parent_offset = Cur().offset;
    LYRIC_ASSIGN_OR_RETURN(q->view_parent, ParseClassName());
    q->is_view = true;
    return Status::OK();
  }

  Status ParseSignature(Query* q) {
    for (;;) {
      SignatureItem item;
      LYRIC_ASSIGN_OR_RETURN(item.attr, ExpectIdent());
      if (Accept(TokenKind::kDArrow)) {
        item.set_valued = true;
      } else {
        LYRIC_RETURN_NOT_OK(Expect(TokenKind::kArrow));
      }
      item.target_offset = Cur().offset;
      LYRIC_ASSIGN_OR_RETURN(item.target_class, ParseClassName());
      q->signature.push_back(std::move(item));
      if (!Accept(TokenKind::kComma)) break;
    }
    return Status::OK();
  }

  // Class names: ident, possibly CST(2).
  Result<std::string> ParseClassName() {
    LYRIC_ASSIGN_OR_RETURN(std::string name, ExpectIdent());
    if (name == "CST" && At(TokenKind::kLParen)) {
      size_t save = pos_;
      if (Accept(TokenKind::kLParen) && At(TokenKind::kNumber)) {
        std::string digits = Cur().text;
        ++pos_;
        if (Accept(TokenKind::kRParen)) {
          return "CST(" + digits + ")";
        }
      }
      pos_ = save;
    }
    return name;
  }

  Result<NameOrLiteral> ParseSelector() {
    size_t offset = Cur().offset;
    auto with_offset = [offset](NameOrLiteral n) {
      n.offset = offset;
      return n;
    };
    if (At(TokenKind::kIdent)) {
      std::string name = Cur().text;
      ++pos_;
      return with_offset(NameOrLiteral::Name(std::move(name)));
    }
    if (At(TokenKind::kString)) {
      Oid lit = Oid::Str(Cur().text);
      ++pos_;
      return with_offset(NameOrLiteral::Lit(std::move(lit)));
    }
    if (At(TokenKind::kNumber)) {
      Rational num = Cur().number;
      ++pos_;
      return with_offset(NameOrLiteral::Lit(
          num.IsInteger() ? Oid::Int(num.num().ToInt64().ValueOr(0))
                          : Oid::Real(num)));
    }
    if (Accept(TokenKind::kTrue)) {
      return with_offset(NameOrLiteral::Lit(Oid::Bool(true)));
    }
    if (Accept(TokenKind::kFalse)) {
      return with_offset(NameOrLiteral::Lit(Oid::Bool(false)));
    }
    return Err("expected a selector (identifier or literal)");
  }

  // path := selector ('.' ident ['[' selector ']'])*
  Result<PathExpr> ParsePath() {
    PathExpr out;
    out.offset = Cur().offset;
    LYRIC_ASSIGN_OR_RETURN(out.head, ParseSelector());
    while (At(TokenKind::kDot)) {
      ++pos_;
      PathExpr::Step step;
      step.offset = Cur().offset;
      LYRIC_ASSIGN_OR_RETURN(step.attribute, ExpectIdent());
      if (Accept(TokenKind::kLBracket)) {
        LYRIC_ASSIGN_OR_RETURN(auto sel, ParseSelector());
        step.selector = std::move(sel);
        LYRIC_RETURN_NOT_OK(Expect(TokenKind::kRBracket));
      }
      out.steps.push_back(std::move(step));
    }
    return out;
  }

  // --- arithmetic -----------------------------------------------------------

  Result<std::unique_ptr<ArithExpr>> ParseArith() {
    LYRIC_ASSIGN_OR_RETURN(auto lhs, ParseTerm());
    while (At(TokenKind::kPlus) || At(TokenKind::kMinus)) {
      bool add = At(TokenKind::kPlus);
      ++pos_;
      LYRIC_ASSIGN_OR_RETURN(auto rhs, ParseTerm());
      auto node = std::make_unique<ArithExpr>();
      node->kind = add ? ArithExpr::Kind::kAdd : ArithExpr::Kind::kSub;
      node->offset = lhs->offset;
      node->lhs = std::move(lhs);
      node->rhs = std::move(rhs);
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<std::unique_ptr<ArithExpr>> ParseTerm() {
    LYRIC_ASSIGN_OR_RETURN(auto lhs, ParseFactor());
    while (At(TokenKind::kStar) || At(TokenKind::kSlash)) {
      bool mul = At(TokenKind::kStar);
      ++pos_;
      LYRIC_ASSIGN_OR_RETURN(auto rhs, ParseFactor());
      auto node = std::make_unique<ArithExpr>();
      node->kind = mul ? ArithExpr::Kind::kMul : ArithExpr::Kind::kDiv;
      node->offset = lhs->offset;
      node->lhs = std::move(lhs);
      node->rhs = std::move(rhs);
      lhs = std::move(node);
    }
    return lhs;
  }

  Result<std::unique_ptr<ArithExpr>> ParseFactor() {
    size_t offset = Cur().offset;
    if (Accept(TokenKind::kMinus)) {
      LYRIC_ASSIGN_OR_RETURN(auto operand,
                             Nested(offset, [&] { return ParseFactor(); }));
      auto node = std::make_unique<ArithExpr>();
      node->kind = ArithExpr::Kind::kNeg;
      node->offset = offset;
      node->lhs = std::move(operand);
      return node;
    }
    if (At(TokenKind::kNumber)) {
      auto node = std::make_unique<ArithExpr>();
      node->kind = ArithExpr::Kind::kConst;
      node->constant = Cur().number;
      node->offset = offset;
      ++pos_;
      return node;
    }
    if (Accept(TokenKind::kLParen)) {
      LYRIC_ASSIGN_OR_RETURN(auto inner,
                             Nested(offset, [&] { return ParseArith(); }));
      LYRIC_RETURN_NOT_OK(Expect(TokenKind::kRParen));
      return inner;
    }
    if (At(TokenKind::kIdent)) {
      LYRIC_ASSIGN_OR_RETURN(PathExpr path, ParsePath());
      auto node = std::make_unique<ArithExpr>();
      node->offset = offset;
      if (path.steps.empty()) {
        node->kind = ArithExpr::Kind::kName;
        node->name = path.head.name;
      } else {
        node->kind = ArithExpr::Kind::kPath;
        node->path = std::make_unique<PathExpr>(std::move(path));
      }
      return node;
    }
    return Err("expected an arithmetic operand");
  }

  // --- formulas -------------------------------------------------------------

  bool AtRelop() const {
    switch (Cur().kind) {
      case TokenKind::kEq:
      case TokenKind::kNeq:
      case TokenKind::kLe:
      case TokenKind::kLt:
      case TokenKind::kGe:
      case TokenKind::kGt:
        return true;
      default:
        return false;
    }
  }
  std::string TakeRelop() {
    std::string out = TokenKindToString(Cur().kind);
    ++pos_;
    return out;
  }

  Result<std::unique_ptr<Formula>> ParseFormulaOr() {
    LYRIC_ASSIGN_OR_RETURN(auto lhs, ParseFormulaAnd());
    if (!At(TokenKind::kOr)) return lhs;
    auto node = std::make_unique<Formula>();
    node->kind = Formula::Kind::kOr;
    node->offset = lhs->offset;
    node->children.push_back(std::move(lhs));
    while (Accept(TokenKind::kOr)) {
      LYRIC_ASSIGN_OR_RETURN(auto rhs, ParseFormulaAnd());
      node->children.push_back(std::move(rhs));
    }
    return node;
  }

  Result<std::unique_ptr<Formula>> ParseFormulaAnd() {
    LYRIC_ASSIGN_OR_RETURN(auto lhs, ParseFormulaNot());
    if (!At(TokenKind::kAnd)) return lhs;
    auto node = std::make_unique<Formula>();
    node->kind = Formula::Kind::kAnd;
    node->offset = lhs->offset;
    node->children.push_back(std::move(lhs));
    while (Accept(TokenKind::kAnd)) {
      LYRIC_ASSIGN_OR_RETURN(auto rhs, ParseFormulaNot());
      node->children.push_back(std::move(rhs));
    }
    return node;
  }

  Result<std::unique_ptr<Formula>> ParseFormulaNot() {
    size_t offset = Cur().offset;
    if (Accept(TokenKind::kNot)) {
      LYRIC_ASSIGN_OR_RETURN(auto operand,
                             Nested(offset, [&] { return ParseFormulaNot(); }));
      auto node = std::make_unique<Formula>();
      node->kind = Formula::Kind::kNot;
      node->offset = offset;
      node->children.push_back(std::move(operand));
      return node;
    }
    return ParseFormulaPrimary();
  }

  // projection := '(' '(' vars ')' '|' formula ')'
  Result<std::unique_ptr<Formula>> TryParseProjection() {
    size_t save = pos_;
    size_t offset = Cur().offset;
    auto fail = [&]() -> Status {
      pos_ = save;
      return Status::ParseError("not a projection");
    };
    if (!Accept(TokenKind::kLParen)) return fail();
    if (!Accept(TokenKind::kLParen)) return fail();
    std::vector<std::string> vars;
    if (!At(TokenKind::kRParen)) {
      for (;;) {
        if (!At(TokenKind::kIdent)) return fail();
        vars.push_back(Cur().text);
        ++pos_;
        if (!Accept(TokenKind::kComma)) break;
      }
    }
    if (!Accept(TokenKind::kRParen)) return fail();
    if (!Accept(TokenKind::kBar)) return fail();
    LYRIC_ASSIGN_OR_RETURN(auto body,
                           Nested(offset, [&] { return ParseFormulaOr(); }));
    LYRIC_RETURN_NOT_OK(Expect(TokenKind::kRParen));
    auto node = std::make_unique<Formula>();
    node->kind = Formula::Kind::kProject;
    node->offset = offset;
    node->proj_vars = std::move(vars);
    node->children.push_back(std::move(body));
    return node;
  }

  Result<std::unique_ptr<Formula>> ParseFormulaPrimary() {
    size_t offset = Cur().offset;
    if (Accept(TokenKind::kExists)) {
      // exists v1, v2 . (phi)
      auto node = std::make_unique<Formula>();
      node->kind = Formula::Kind::kExists;
      node->offset = offset;
      for (;;) {
        LYRIC_ASSIGN_OR_RETURN(std::string var, ExpectIdent());
        node->proj_vars.push_back(std::move(var));
        if (!Accept(TokenKind::kComma)) break;
      }
      LYRIC_RETURN_NOT_OK(Expect(TokenKind::kDot));
      LYRIC_ASSIGN_OR_RETURN(
          auto body, Nested(offset, [&] { return ParseFormulaPrimary(); }));
      node->children.push_back(std::move(body));
      return node;
    }
    if (Accept(TokenKind::kTrue)) {
      auto node = std::make_unique<Formula>();
      node->kind = Formula::Kind::kTrue;
      node->offset = offset;
      return node;
    }
    if (Accept(TokenKind::kFalse)) {
      auto node = std::make_unique<Formula>();
      node->kind = Formula::Kind::kFalse;
      node->offset = offset;
      return node;
    }
    if (At(TokenKind::kLParen)) {
      // Try, in order: projection, atom led by a parenthesized arithmetic
      // expression, parenthesized formula.
      {
        auto proj = TryParseProjection();
        if (proj.ok()) return std::move(proj).value();
      }
      {
        size_t save = pos_;
        auto atom = TryParseAtomChain();
        if (atom.ok()) return std::move(atom).value();
        pos_ = save;
      }
      LYRIC_RETURN_NOT_OK(Expect(TokenKind::kLParen));
      LYRIC_ASSIGN_OR_RETURN(auto inner,
                             Nested(offset, [&] { return ParseFormulaOr(); }));
      LYRIC_RETURN_NOT_OK(Expect(TokenKind::kRParen));
      return inner;
    }
    return ParseAtomOrPred();
  }

  // Atoms with optional chaining: a <= b <= c becomes (a<=b) and (b<=c).
  // Fails (without consuming definitively — caller restores pos) when no
  // relop follows the first expression.
  Result<std::unique_ptr<Formula>> TryParseAtomChain() {
    LYRIC_ASSIGN_OR_RETURN(auto first, ParseArith());
    if (!AtRelop()) return Err("expected a relational operator");
    return FinishAtomChain(std::move(first));
  }

  Result<std::unique_ptr<Formula>> FinishAtomChain(
      std::unique_ptr<ArithExpr> first) {
    std::vector<std::unique_ptr<Formula>> atoms;
    std::unique_ptr<ArithExpr> prev = std::move(first);
    while (AtRelop()) {
      std::string op = TakeRelop();
      LYRIC_ASSIGN_OR_RETURN(auto next, ParseArith());
      auto atom = std::make_unique<Formula>();
      atom->kind = Formula::Kind::kAtom;
      atom->relop = op;
      atom->offset = prev->offset;
      atom->atom_lhs = std::move(prev);
      // Deep-copy `next` for the chain continuation.
      atom->atom_rhs = CloneArith(*next);
      prev = std::move(next);
      atoms.push_back(std::move(atom));
    }
    if (atoms.size() == 1) return std::move(atoms[0]);
    auto node = std::make_unique<Formula>();
    node->kind = Formula::Kind::kAnd;
    node->offset = atoms[0]->offset;
    node->children = std::move(atoms);
    return node;
  }

  static std::unique_ptr<ArithExpr> CloneArith(const ArithExpr& e) {
    auto out = std::make_unique<ArithExpr>();
    out->kind = e.kind;
    out->constant = e.constant;
    out->name = e.name;
    out->offset = e.offset;
    if (e.path) out->path = std::make_unique<PathExpr>(*e.path);
    if (e.lhs) out->lhs = CloneArith(*e.lhs);
    if (e.rhs) out->rhs = CloneArith(*e.rhs);
    return out;
  }

  Result<std::unique_ptr<Formula>> ParseAtomOrPred() {
    LYRIC_ASSIGN_OR_RETURN(auto first, ParseArith());
    if (AtRelop()) return FinishAtomChain(std::move(first));
    // A bare name/path is a CST predicate use, optionally with explicit
    // dimension variables.
    if (first->kind != ArithExpr::Kind::kName &&
        first->kind != ArithExpr::Kind::kPath) {
      return Err("expected a relational operator or a CST predicate");
    }
    auto node = std::make_unique<Formula>();
    node->kind = Formula::Kind::kPred;
    node->offset = first->offset;
    if (first->kind == ArithExpr::Kind::kName) {
      node->pred = std::make_unique<PathExpr>();
      node->pred->head = NameOrLiteral::Name(first->name);
      node->pred->head.offset = first->offset;
      node->pred->offset = first->offset;
    } else {
      node->pred = std::move(first->path);
    }
    if (Accept(TokenKind::kLParen)) {
      std::vector<std::string> args;
      if (!At(TokenKind::kRParen)) {
        for (;;) {
          LYRIC_ASSIGN_OR_RETURN(std::string arg, ExpectIdent());
          args.push_back(std::move(arg));
          if (!Accept(TokenKind::kComma)) break;
        }
      }
      LYRIC_RETURN_NOT_OK(Expect(TokenKind::kRParen));
      node->pred_args = std::move(args);
    }
    return node;
  }

  // A formula operand for |=: projection, pred use, or '(' formula ')'.
  Result<std::unique_ptr<Formula>> ParseFormulaOperand() {
    size_t offset = Cur().offset;
    if (At(TokenKind::kLParen)) {
      auto proj = TryParseProjection();
      if (proj.ok()) return std::move(proj).value();
      LYRIC_RETURN_NOT_OK(Expect(TokenKind::kLParen));
      LYRIC_ASSIGN_OR_RETURN(auto inner,
                             Nested(offset, [&] { return ParseFormulaOr(); }));
      LYRIC_RETURN_NOT_OK(Expect(TokenKind::kRParen));
      return inner;
    }
    return ParseAtomOrPred();
  }

  // --- select items ----------------------------------------------------------

  Result<SelectItem> ParseSelectItem() {
    SelectItem item;
    item.offset = Cur().offset;
    // Optional 'name ='.
    if (At(TokenKind::kIdent) &&
        tokens_[pos_ + 1].kind == TokenKind::kEq) {
      item.name = Cur().text;
      pos_ += 2;
    }
    if (At(TokenKind::kMax) || At(TokenKind::kMin) ||
        At(TokenKind::kMaxPoint) || At(TokenKind::kMinPoint)) {
      switch (Cur().kind) {
        case TokenKind::kMax:
          item.opt = SelectItem::OptKind::kMax;
          break;
        case TokenKind::kMin:
          item.opt = SelectItem::OptKind::kMin;
          break;
        case TokenKind::kMaxPoint:
          item.opt = SelectItem::OptKind::kMaxPoint;
          break;
        default:
          item.opt = SelectItem::OptKind::kMinPoint;
          break;
      }
      ++pos_;
      item.kind = SelectItem::Kind::kOptimize;
      LYRIC_RETURN_NOT_OK(Expect(TokenKind::kLParen));
      LYRIC_ASSIGN_OR_RETURN(item.objective, ParseArith());
      LYRIC_RETURN_NOT_OK(Expect(TokenKind::kSubject));
      LYRIC_RETURN_NOT_OK(Expect(TokenKind::kTo));
      LYRIC_ASSIGN_OR_RETURN(item.formula, ParseFormulaOr());
      LYRIC_RETURN_NOT_OK(Expect(TokenKind::kRParen));
      return item;
    }
    if (At(TokenKind::kLParen)) {
      auto proj = TryParseProjection();
      if (proj.ok()) {
        item.kind = SelectItem::Kind::kFormulaObject;
        item.formula = std::move(proj).value();
        return item;
      }
      return Err("expected a projection formula ((vars) | ...) in SELECT");
    }
    item.kind = SelectItem::Kind::kPath;
    LYRIC_ASSIGN_OR_RETURN(item.path, ParsePath());
    return item;
  }

  // --- WHERE -----------------------------------------------------------------

  Result<std::unique_ptr<WhereExpr>> ParseWhereOr() {
    LYRIC_ASSIGN_OR_RETURN(auto lhs, ParseWhereAnd());
    if (!At(TokenKind::kOr)) return lhs;
    auto node = std::make_unique<WhereExpr>();
    node->kind = WhereExpr::Kind::kOr;
    node->offset = lhs->offset;
    node->children.push_back(std::move(lhs));
    while (Accept(TokenKind::kOr)) {
      LYRIC_ASSIGN_OR_RETURN(auto rhs, ParseWhereAnd());
      node->children.push_back(std::move(rhs));
    }
    return node;
  }

  Result<std::unique_ptr<WhereExpr>> ParseWhereAnd() {
    LYRIC_ASSIGN_OR_RETURN(auto lhs, ParseWhereNot());
    if (!At(TokenKind::kAnd)) return lhs;
    auto node = std::make_unique<WhereExpr>();
    node->kind = WhereExpr::Kind::kAnd;
    node->offset = lhs->offset;
    node->children.push_back(std::move(lhs));
    while (Accept(TokenKind::kAnd)) {
      LYRIC_ASSIGN_OR_RETURN(auto rhs, ParseWhereNot());
      node->children.push_back(std::move(rhs));
    }
    return node;
  }

  Result<std::unique_ptr<WhereExpr>> ParseWhereNot() {
    size_t offset = Cur().offset;
    if (Accept(TokenKind::kNot)) {
      LYRIC_ASSIGN_OR_RETURN(auto operand,
                             Nested(offset, [&] { return ParseWhereNot(); }));
      auto node = std::make_unique<WhereExpr>();
      node->kind = WhereExpr::Kind::kNot;
      node->offset = offset;
      node->children.push_back(std::move(operand));
      return node;
    }
    return ParseWherePrimary();
  }

  Result<std::unique_ptr<WhereExpr>> ParseWherePrimary() {
    size_t offset = Cur().offset;
    // SAT(phi).
    if (Accept(TokenKind::kSat)) {
      LYRIC_RETURN_NOT_OK(Expect(TokenKind::kLParen));
      LYRIC_ASSIGN_OR_RETURN(auto f, ParseFormulaOr());
      LYRIC_RETURN_NOT_OK(Expect(TokenKind::kRParen));
      auto node = std::make_unique<WhereExpr>();
      node->kind = WhereExpr::Kind::kFormulaSat;
      node->offset = offset;
      node->formula = std::move(f);
      return node;
    }
    // Entailment: formula |= formula (backtracks when no |= follows).
    {
      size_t save = pos_;
      auto lhs = ParseFormulaOperand();
      if (lhs.ok() && Accept(TokenKind::kEntails)) {
        LYRIC_ASSIGN_OR_RETURN(auto rhs, ParseFormulaOperand());
        auto node = std::make_unique<WhereExpr>();
        node->kind = WhereExpr::Kind::kEntails;
        node->offset = offset;
        node->ent_lhs = std::move(lhs).value();
        node->ent_rhs = std::move(rhs);
        return node;
      }
      pos_ = save;
    }
    // Parenthesized condition.
    if (At(TokenKind::kLParen)) {
      size_t save = pos_;
      ++pos_;
      auto inner = Nested(offset, [&] { return ParseWhereOr(); });
      if (inner.ok() && Accept(TokenKind::kRParen)) {
        return std::move(inner).value();
      }
      pos_ = save;
      return Err("could not parse parenthesized condition");
    }
    // Comparison or path predicate.
    LYRIC_ASSIGN_OR_RETURN(WhereExpr::Operand lhs, ParseOperand());
    if (AtRelop() || At(TokenKind::kContains)) {
      auto node = std::make_unique<WhereExpr>();
      node->kind = WhereExpr::Kind::kCompare;
      node->offset = offset;
      node->cmp_op = At(TokenKind::kContains) ? "contains" : TakeRelop();
      if (node->cmp_op == "contains") ++pos_;
      node->cmp_lhs = std::move(lhs);
      LYRIC_ASSIGN_OR_RETURN(node->cmp_rhs, ParseOperand());
      return node;
    }
    if (lhs.kind != WhereExpr::Operand::Kind::kPath) {
      return Err("a bare literal is not a condition");
    }
    auto node = std::make_unique<WhereExpr>();
    node->kind = WhereExpr::Kind::kPathPred;
    node->offset = offset;
    node->path = std::move(lhs.path);
    return node;
  }

  Result<WhereExpr::Operand> ParseOperand() {
    WhereExpr::Operand out;
    if (At(TokenKind::kString) || At(TokenKind::kNumber) ||
        At(TokenKind::kTrue) || At(TokenKind::kFalse)) {
      LYRIC_ASSIGN_OR_RETURN(auto sel, ParseSelector());
      out.kind = WhereExpr::Operand::Kind::kLiteral;
      out.literal = sel.literal;
      return out;
    }
    out.kind = WhereExpr::Operand::Kind::kPath;
    LYRIC_ASSIGN_OR_RETURN(out.path, ParsePath());
    return out;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  size_t error_offset_ = 0;
  size_t error_length_ = 1;
  int depth_ = 0;
  Status too_deep_;  // Set once, by the first nesting overflow.
};

}  // namespace

Result<ast::Query> ParseQuery(const std::string& text) {
  LYRIC_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(text));
  Parser parser(std::move(tokens));
  return parser.Outcome(parser.ParseQuery());
}

Result<ast::Query> ParseQuery(const std::string& text, Diagnostic* diag) {
  size_t lex_error_offset = 0;
  Result<std::vector<Token>> tokens = Lex(text, &lex_error_offset);
  if (!tokens.ok()) {
    if (diag != nullptr) {
      *diag = MakeDiag(DiagCode::kLexError, {lex_error_offset, 1},
                       tokens.status().message());
    }
    return tokens.status();
  }
  Parser parser(std::move(tokens).value());
  Result<ast::Query> query = parser.Outcome(parser.ParseQuery());
  if (!query.ok() && diag != nullptr) {
    *diag = MakeDiag(DiagCode::kSyntaxError,
                     {parser.error_offset(), parser.error_length()},
                     query.status().message());
  }
  return query;
}

Result<ast::Formula> ParseFormula(const std::string& text) {
  LYRIC_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(text));
  Parser parser(std::move(tokens));
  return parser.Outcome(parser.ParseStandaloneFormula());
}

Result<ast::Formula> ParseFormulaPrefix(const std::vector<Token>& tokens,
                                        size_t* pos) {
  std::vector<Token> rest(tokens.begin() + static_cast<ptrdiff_t>(*pos),
                          tokens.end());
  Parser parser(std::move(rest));
  size_t consumed = 0;
  LYRIC_ASSIGN_OR_RETURN(ast::Formula f,
                         parser.Outcome(parser.ParsePrefixFormula(&consumed)));
  *pos += consumed;
  return f;
}

}  // namespace lyric
