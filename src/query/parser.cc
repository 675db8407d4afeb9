#include "query/parser.h"

#include <utility>

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
// frame, so one deep frame must not crash the parser; chains of any
// length are loops, not levels.
constexpr int kMaxNesting = 64;

// Reads a token stream it does not own, from a start position, forward
// only: every choice is made from tokens not yet consumed (a '(' knows its
// partner), and the first error is the result.
class Parser {
 public:
  Parser(const std::vector<Token>& tokens, size_t pos)
      : tokens_(tokens), pos_(pos) {}

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
      LYRIC_ASSIGN_OR_RETURN(q.where, ParseWhere());
    }
    Accept(TokenKind::kSemicolon);
    LYRIC_RETURN_NOT_OK(ExpectEnd());
    return q;
  }

  Result<std::unique_ptr<Formula>> ParseFormula() {
    return ParseOr<Formula>([this] { return ParseFormulaPrimary(); });
  }

  Status ExpectEnd() {
    return At(TokenKind::kEnd) ? Status::OK()
                               : Err("unexpected trailing input");
  }

  size_t pos() const { return pos_; }

  // Position of the token the reported error points at, for diagnostics
  // with source spans.
  size_t error_offset() const { return error_offset_; }
  size_t error_length() const { return error_length_; }

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
  // opens. Past kMaxNesting the parse fails there.
  template <typename Parse>
  auto Nested(size_t offset, Parse parse) -> decltype(parse()) {
    if (depth_ >= kMaxNesting) {
      error_offset_ = offset;
      error_length_ = 1;
      return Status::ParseError("nesting deeper than " +
                                std::to_string(kMaxNesting) +
                                " levels at offset " + std::to_string(offset));
    }
    ++depth_;
    auto out = parse();
    --depth_;
    return out;
  }

  // --- boolean structure --------------------------------------------------

  // One precedence ladder for formulas and WHERE conditions alike:
  //   or  := and ('or' and)*
  //   and := not ('and' not)*
  //   not := 'not' not | primary
  // `primary` parses the node type's primaries; chains become one n-ary
  // node.
  template <typename Node, typename Primary>
  Result<std::unique_ptr<Node>> ParseOr(const Primary& primary) {
    return ParseJunction<Node>(TokenKind::kOr, Node::Kind::kOr, [&] {
      return ParseJunction<Node>(TokenKind::kAnd, Node::Kind::kAnd,
                                 [&] { return ParseNot<Node>(primary); });
    });
  }

  template <typename Node, typename Operand>
  Result<std::unique_ptr<Node>> ParseJunction(TokenKind op,
                                              typename Node::Kind kind,
                                              const Operand& operand) {
    LYRIC_ASSIGN_OR_RETURN(auto first, operand());
    if (!At(op)) return first;
    auto node = std::make_unique<Node>();
    node->kind = kind;
    node->offset = first->offset;
    node->children.push_back(std::move(first));
    while (Accept(op)) {
      LYRIC_ASSIGN_OR_RETURN(auto next, operand());
      node->children.push_back(std::move(next));
    }
    return node;
  }

  template <typename Node, typename Primary>
  Result<std::unique_ptr<Node>> ParseNot(const Primary& primary) {
    size_t offset = Cur().offset;
    if (!Accept(TokenKind::kNot)) return primary();
    LYRIC_ASSIGN_OR_RETURN(
        auto operand, Nested(offset, [&] { return ParseNot<Node>(primary); }));
    auto node = std::make_unique<Node>();
    node->kind = Node::Kind::kNot;
    node->offset = offset;
    node->children.push_back(std::move(operand));
    return node;
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
    if (name == "CST" && At(TokenKind::kLParen) &&
        tokens_[pos_ + 1].kind == TokenKind::kNumber &&
        tokens_[pos_ + 2].kind == TokenKind::kRParen) {
      name += "(" + tokens_[pos_ + 1].text + ")";
      pos_ += 3;
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

  // sum     := product (('+' | '-') product)*
  // product := factor (('*' | '/') factor)*
  // Each level appends its chain to one n-ary node; a one-operand chain
  // is the bare operand.
  Result<ArithExpr> ParseArith() { return ParseChain(ArithExpr::Kind::kSum); }

  Result<ArithExpr> ParseChain(ArithExpr::Kind kind) {
    const bool sum = kind == ArithExpr::Kind::kSum;
    auto operand = [&] {
      return sum ? ParseChain(ArithExpr::Kind::kProduct) : ParseFactor();
    };
    LYRIC_ASSIGN_OR_RETURN(ArithExpr first, operand());
    if (ChainOp(sum) == 0) return first;
    ArithExpr chain;
    chain.kind = kind;
    chain.offset = first.offset;
    first.op = sum ? '+' : '*';
    chain.operands.push_back(std::move(first));
    for (char op = ChainOp(sum); op != 0; op = ChainOp(sum)) {
      ++pos_;
      LYRIC_ASSIGN_OR_RETURN(ArithExpr next, operand());
      next.op = op;
      chain.operands.push_back(std::move(next));
    }
    return chain;
  }

  // The operator at the cursor when it continues a sum (or a product).
  char ChainOp(bool sum) const {
    switch (Cur().kind) {
      case TokenKind::kPlus: return sum ? '+' : 0;
      case TokenKind::kMinus: return sum ? '-' : 0;
      case TokenKind::kStar: return sum ? 0 : '*';
      case TokenKind::kSlash: return sum ? 0 : '/';
      default: return 0;
    }
  }

  Result<ArithExpr> ParseFactor() {
    ArithExpr node;
    node.offset = Cur().offset;
    if (Accept(TokenKind::kMinus)) {
      LYRIC_ASSIGN_OR_RETURN(
          ArithExpr operand,
          Nested(node.offset, [&] { return ParseFactor(); }));
      node.kind = ArithExpr::Kind::kNeg;
      node.operands.push_back(std::move(operand));
      return node;
    }
    if (At(TokenKind::kNumber)) {
      node.kind = ArithExpr::Kind::kConst;
      node.constant = Cur().number;
      ++pos_;
      return node;
    }
    if (Accept(TokenKind::kLParen)) {
      LYRIC_ASSIGN_OR_RETURN(
          ArithExpr inner, Nested(node.offset, [&] { return ParseArith(); }));
      LYRIC_RETURN_NOT_OK(Expect(TokenKind::kRParen));
      return inner;
    }
    if (At(TokenKind::kIdent)) {
      LYRIC_ASSIGN_OR_RETURN(PathExpr path, ParsePath());
      if (path.steps.empty()) {
        node.kind = ArithExpr::Kind::kName;
        node.name = std::move(path.head.name);
      } else {
        node.kind = ArithExpr::Kind::kPath;
        node.path = std::make_shared<const PathExpr>(std::move(path));
      }
      return node;
    }
    return Err("expected an arithmetic operand");
  }

  // --- formulas -------------------------------------------------------------

  static bool IsRelop(TokenKind kind) {
    switch (kind) {
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
  bool AtRelop() const { return IsRelop(Cur().kind); }
  std::string TakeRelop() {
    std::string out = TokenKindToString(Cur().kind);
    ++pos_;
    return out;
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
    if (At(TokenKind::kTrue) || At(TokenKind::kFalse)) {
      auto node = std::make_unique<Formula>();
      node->kind = At(TokenKind::kTrue) ? Formula::Kind::kTrue
                                        : Formula::Kind::kFalse;
      node->offset = offset;
      ++pos_;
      return node;
    }
    return ParseAtomOrGroup();
  }

  // A formula primary other than true/false/exists, and an operand of |=.
  // At a '(', the tokens ahead decide: `( ( names ) |` opens a
  // projection; a group followed by a relational or arithmetic operator
  // leads an atom chain; anything else is a parenthesized formula.
  Result<std::unique_ptr<Formula>> ParseAtomOrGroup() {
    if (!At(TokenKind::kLParen)) return ParseAtomOrPred();
    if (AtProjection()) return ParseProjection();
    if (Cur().partner != Token::kNoPartner) {
      TokenKind after = tokens_[Cur().partner + 1].kind;
      if (IsRelop(after) || after == TokenKind::kPlus ||
          after == TokenKind::kMinus || after == TokenKind::kStar ||
          after == TokenKind::kSlash) {
        return ParseAtomOrPred();
      }
    }
    size_t offset = Cur().offset;
    ++pos_;
    LYRIC_ASSIGN_OR_RETURN(auto inner,
                           Nested(offset, [&] { return ParseFormula(); }));
    LYRIC_RETURN_NOT_OK(Expect(TokenKind::kRParen));
    return inner;
  }

  // Whether a projection '(' '(' vars ')' '|' starts at the cursor.
  bool AtProjection() const {
    size_t i = pos_;
    if (tokens_[i].kind != TokenKind::kLParen ||
        tokens_[i + 1].kind != TokenKind::kLParen) {
      return false;
    }
    i += 2;
    if (tokens_[i].kind == TokenKind::kIdent) {
      while (tokens_[i + 1].kind == TokenKind::kComma &&
             tokens_[i + 2].kind == TokenKind::kIdent) {
        i += 2;
      }
      ++i;
    }
    return tokens_[i].kind == TokenKind::kRParen &&
           tokens_[i + 1].kind == TokenKind::kBar;
  }

  // projection := '(' '(' vars ')' '|' formula ')', once AtProjection().
  Result<std::unique_ptr<Formula>> ParseProjection() {
    auto node = std::make_unique<Formula>();
    node->kind = Formula::Kind::kProject;
    node->offset = Cur().offset;
    pos_ += 2;
    while (At(TokenKind::kIdent)) {
      node->proj_vars.push_back(Cur().text);
      ++pos_;
      if (!Accept(TokenKind::kComma)) break;
    }
    LYRIC_RETURN_NOT_OK(Expect(TokenKind::kRParen));
    LYRIC_RETURN_NOT_OK(Expect(TokenKind::kBar));
    LYRIC_ASSIGN_OR_RETURN(
        auto body, Nested(node->offset, [&] { return ParseFormula(); }));
    LYRIC_RETURN_NOT_OK(Expect(TokenKind::kRParen));
    node->children.push_back(std::move(body));
    return node;
  }

  Result<std::unique_ptr<Formula>> ParseAtomOrPred() {
    LYRIC_ASSIGN_OR_RETURN(ArithExpr first, ParseArith());
    if (AtRelop()) return ParseAtomChain(std::move(first));
    // A bare name/path is a CST predicate use, optionally with explicit
    // dimension variables.
    auto node = std::make_unique<Formula>();
    node->kind = Formula::Kind::kPred;
    node->offset = first.offset;
    if (first.kind == ArithExpr::Kind::kName) {
      node->pred = std::make_unique<PathExpr>();
      node->pred->head = NameOrLiteral::Name(first.name);
      node->pred->head.offset = first.offset;
      node->pred->offset = first.offset;
    } else if (first.kind == ArithExpr::Kind::kPath) {
      node->pred = std::make_unique<PathExpr>(*first.path);
    } else {
      return Err("expected a relational operator or a CST predicate");
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

  // Atoms with optional chaining: a <= b <= c becomes (a<=b) and (b<=c).
  Result<std::unique_ptr<Formula>> ParseAtomChain(ArithExpr first) {
    std::vector<std::unique_ptr<Formula>> atoms;
    ArithExpr prev = std::move(first);
    while (AtRelop()) {
      auto atom = std::make_unique<Formula>();
      atom->kind = Formula::Kind::kAtom;
      atom->relop = TakeRelop();
      atom->offset = prev.offset;
      LYRIC_ASSIGN_OR_RETURN(ArithExpr next, ParseArith());
      atom->atom_lhs = std::make_unique<ArithExpr>(std::exchange(prev, {}));
      if (AtRelop()) prev = next;  // `next` also opens the following atom.
      atom->atom_rhs = std::make_unique<ArithExpr>(std::move(next));
      atoms.push_back(std::move(atom));
    }
    if (atoms.size() == 1) return std::move(atoms[0]);
    auto node = std::make_unique<Formula>();
    node->kind = Formula::Kind::kAnd;
    node->offset = atoms[0]->offset;
    node->children = std::move(atoms);
    return node;
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
      LYRIC_ASSIGN_OR_RETURN(ArithExpr objective, ParseArith());
      item.objective = std::make_unique<ArithExpr>(std::move(objective));
      LYRIC_RETURN_NOT_OK(Expect(TokenKind::kSubject));
      LYRIC_RETURN_NOT_OK(Expect(TokenKind::kTo));
      LYRIC_ASSIGN_OR_RETURN(item.formula, ParseFormula());
      LYRIC_RETURN_NOT_OK(Expect(TokenKind::kRParen));
      return item;
    }
    if (At(TokenKind::kLParen)) {
      if (!AtProjection()) {
        return Err("expected a projection formula ((vars) | ...) in SELECT");
      }
      item.kind = SelectItem::Kind::kFormulaObject;
      LYRIC_ASSIGN_OR_RETURN(item.formula, ParseProjection());
      return item;
    }
    item.kind = SelectItem::Kind::kPath;
    LYRIC_ASSIGN_OR_RETURN(item.path, ParsePath());
    return item;
  }

  // --- WHERE -----------------------------------------------------------------

  Result<std::unique_ptr<WhereExpr>> ParseWhere() {
    return ParseOr<WhereExpr>([this] { return ParseWherePrimary(); });
  }

  Result<std::unique_ptr<WhereExpr>> ParseWherePrimary() {
    auto node = std::make_unique<WhereExpr>();
    node->offset = Cur().offset;
    // SAT(phi).
    if (Accept(TokenKind::kSat)) {
      LYRIC_RETURN_NOT_OK(Expect(TokenKind::kLParen));
      node->kind = WhereExpr::Kind::kFormulaSat;
      LYRIC_ASSIGN_OR_RETURN(node->formula, ParseFormula());
      LYRIC_RETURN_NOT_OK(Expect(TokenKind::kRParen));
      return node;
    }
    // Entailment: formula |= formula.
    if (EntailmentAhead()) {
      node->kind = WhereExpr::Kind::kEntails;
      LYRIC_ASSIGN_OR_RETURN(node->ent_lhs, ParseAtomOrGroup());
      LYRIC_RETURN_NOT_OK(Expect(TokenKind::kEntails));
      LYRIC_ASSIGN_OR_RETURN(node->ent_rhs, ParseAtomOrGroup());
      return node;
    }
    // Parenthesized condition.
    if (Accept(TokenKind::kLParen)) {
      LYRIC_ASSIGN_OR_RETURN(
          auto inner, Nested(node->offset, [&] { return ParseWhere(); }));
      LYRIC_RETURN_NOT_OK(Expect(TokenKind::kRParen));
      return inner;
    }
    // Comparison or path predicate.
    LYRIC_ASSIGN_OR_RETURN(WhereExpr::Operand lhs, ParseOperand());
    if (AtRelop() || At(TokenKind::kContains)) {
      node->kind = WhereExpr::Kind::kCompare;
      node->cmp_op = At(TokenKind::kContains) ? "contains" : TakeRelop();
      if (node->cmp_op == "contains") ++pos_;
      node->cmp_lhs = std::move(lhs);
      LYRIC_ASSIGN_OR_RETURN(node->cmp_rhs, ParseOperand());
      return node;
    }
    if (lhs.kind != WhereExpr::Operand::Kind::kPath) {
      return Err("a bare literal is not a condition");
    }
    node->kind = WhereExpr::Kind::kPathPred;
    node->path = std::move(lhs.path);
    return node;
  }

  // A WHERE primary is an entailment exactly when `|=` comes before the
  // next `and`, `or`, `)`, `;` or end at its depth, skipping groups.
  bool EntailmentAhead() const {
    for (size_t i = pos_;;) {
      const Token& t = tokens_[i];
      switch (t.kind) {
        case TokenKind::kEntails:
          return true;
        case TokenKind::kAnd:
        case TokenKind::kOr:
        case TokenKind::kRParen:
        case TokenKind::kSemicolon:
        case TokenKind::kEnd:
          return false;
        case TokenKind::kLParen:
          if (t.partner == Token::kNoPartner) return false;
          i = t.partner + 1;
          break;
        default:
          ++i;
      }
    }
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

  const std::vector<Token>& tokens_;
  size_t pos_;
  size_t error_offset_ = 0;
  size_t error_length_ = 1;
  int depth_ = 0;
};

}  // namespace

Result<ast::Query> ParseQuery(const std::string& text) {
  return ParseQuery(text, nullptr);
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
  Parser parser(*tokens, 0);
  Result<ast::Query> query = parser.ParseQuery();
  if (!query.ok() && diag != nullptr) {
    *diag = MakeDiag(DiagCode::kSyntaxError,
                     {parser.error_offset(), parser.error_length()},
                     query.status().message());
  }
  return query;
}

Result<ast::Formula> ParseFormula(const std::string& text) {
  LYRIC_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(text));
  Parser parser(tokens, 0);
  LYRIC_ASSIGN_OR_RETURN(auto f, parser.ParseFormula());
  LYRIC_RETURN_NOT_OK(parser.ExpectEnd());
  return std::move(*f);
}

Result<ast::Formula> ParseFormulaPrefix(const std::vector<Token>& tokens,
                                        size_t* pos) {
  Parser parser(tokens, *pos);
  LYRIC_ASSIGN_OR_RETURN(auto f, parser.ParseFormula());
  *pos = parser.pos();
  return std::move(*f);
}

}  // namespace lyric
