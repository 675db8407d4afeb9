#include "query/ast.h"

namespace lyric {
namespace ast {

namespace {
std::string NameOrLiteralToString(const NameOrLiteral& n) {
  return n.kind == NameOrLiteral::Kind::kName ? n.name
                                              : n.literal.ToString();
}

void AppendArith(const ArithExpr& e, std::string* out);

// "((o0 op1 o1) op2 o2)" for the first `n` operands of a chain.
void AppendChain(const ArithExpr& e, size_t n, std::string* out) {
  out->append(n - 1, '(');
  AppendArith(e.operands[0], out);
  for (size_t i = 1; i < n; ++i) {
    *out += ' ';
    *out += e.operands[i].op;
    *out += ' ';
    AppendArith(e.operands[i], out);
    *out += ')';
  }
}

void AppendArith(const ArithExpr& e, std::string* out) {
  switch (e.kind) {
    case ArithExpr::Kind::kConst:
      *out += e.constant.ToString();
      return;
    case ArithExpr::Kind::kName:
      *out += e.name;
      return;
    case ArithExpr::Kind::kPath:
      *out += e.path->ToString();
      return;
    case ArithExpr::Kind::kNeg:
      *out += "(-";
      AppendArith(e.operands[0], out);
      *out += ')';
      return;
    case ArithExpr::Kind::kSum:
    case ArithExpr::Kind::kProduct:
      AppendChain(e, e.operands.size(), out);
      return;
  }
}
}  // namespace

std::string PathExpr::ToString() const {
  std::string out = NameOrLiteralToString(head);
  for (const Step& s : steps) {
    out += "." + s.attribute;
    if (s.selector.has_value()) {
      out += "[" + NameOrLiteralToString(*s.selector) + "]";
    }
  }
  return out;
}

std::string ArithExpr::ToString() const {
  std::string out;
  AppendArith(*this, &out);
  return out;
}

std::string ArithExpr::PrefixToString(size_t n) const {
  std::string out;
  AppendChain(*this, n, &out);
  return out;
}

std::string Formula::ToString() const {
  switch (kind) {
    case Kind::kTrue:
      return "true";
    case Kind::kFalse:
      return "false";
    case Kind::kAtom:
      return atom_lhs->ToString() + " " + relop + " " + atom_rhs->ToString();
    case Kind::kAnd:
    case Kind::kOr: {
      std::string sep = kind == Kind::kAnd ? " and " : " or ";
      std::string out;
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += sep;
        out += "(" + children[i]->ToString() + ")";
      }
      return out;
    }
    case Kind::kNot:
      return "not (" + children[0]->ToString() + ")";
    case Kind::kPred: {
      std::string out = pred->ToString();
      if (pred_args.has_value()) {
        out += "(";
        for (size_t i = 0; i < pred_args->size(); ++i) {
          if (i > 0) out += ", ";
          out += (*pred_args)[i];
        }
        out += ")";
      }
      return out;
    }
    case Kind::kProject: {
      std::string out = "((";
      for (size_t i = 0; i < proj_vars.size(); ++i) {
        if (i > 0) out += ", ";
        out += proj_vars[i];
      }
      out += ") | " + children[0]->ToString() + ")";
      return out;
    }
    case Kind::kExists: {
      std::string out = "exists ";
      for (size_t i = 0; i < proj_vars.size(); ++i) {
        if (i > 0) out += ", ";
        out += proj_vars[i];
      }
      out += " . (" + children[0]->ToString() + ")";
      return out;
    }
  }
  return "?";
}

}  // namespace ast
}  // namespace lyric
