#include "query/lexer.h"

#include <cctype>
#include <map>

#include "util/string_util.h"

namespace lyric {

const char* TokenKindToString(TokenKind kind) {
  switch (kind) {
    case TokenKind::kEnd: return "<end>";
    case TokenKind::kIdent: return "identifier";
    case TokenKind::kNumber: return "number";
    case TokenKind::kString: return "string";
    case TokenKind::kSelect: return "SELECT";
    case TokenKind::kFrom: return "FROM";
    case TokenKind::kWhere: return "WHERE";
    case TokenKind::kAnd: return "AND";
    case TokenKind::kOr: return "OR";
    case TokenKind::kNot: return "NOT";
    case TokenKind::kCreate: return "CREATE";
    case TokenKind::kView: return "VIEW";
    case TokenKind::kAs: return "AS";
    case TokenKind::kSubclass: return "SUBCLASS";
    case TokenKind::kOf: return "OF";
    case TokenKind::kOid: return "OID";
    case TokenKind::kFunction: return "FUNCTION";
    case TokenKind::kSignature: return "SIGNATURE";
    case TokenKind::kMax: return "MAX";
    case TokenKind::kMin: return "MIN";
    case TokenKind::kMaxPoint: return "MAX_POINT";
    case TokenKind::kMinPoint: return "MIN_POINT";
    case TokenKind::kSubject: return "SUBJECT";
    case TokenKind::kTo: return "TO";
    case TokenKind::kSat: return "SAT";
    case TokenKind::kContains: return "CONTAINS";
    case TokenKind::kTrue: return "TRUE";
    case TokenKind::kFalse: return "FALSE";
    case TokenKind::kExists: return "EXISTS";
    case TokenKind::kDot: return ".";
    case TokenKind::kComma: return ",";
    case TokenKind::kLParen: return "(";
    case TokenKind::kRParen: return ")";
    case TokenKind::kLBracket: return "[";
    case TokenKind::kRBracket: return "]";
    case TokenKind::kBar: return "|";
    case TokenKind::kEq: return "=";
    case TokenKind::kNeq: return "!=";
    case TokenKind::kLe: return "<=";
    case TokenKind::kLt: return "<";
    case TokenKind::kGe: return ">=";
    case TokenKind::kGt: return ">";
    case TokenKind::kPlus: return "+";
    case TokenKind::kMinus: return "-";
    case TokenKind::kStar: return "*";
    case TokenKind::kSlash: return "/";
    case TokenKind::kEntails: return "|=";
    case TokenKind::kArrow: return "=>";
    case TokenKind::kDArrow: return "=>>";
    case TokenKind::kAssign: return ":=";
    case TokenKind::kSemicolon: return ";";
  }
  return "?";
}

namespace {

const std::map<std::string, TokenKind>& Keywords() {
  static const std::map<std::string, TokenKind>* kw =
      new std::map<std::string, TokenKind>{
          {"select", TokenKind::kSelect},
          {"from", TokenKind::kFrom},
          {"where", TokenKind::kWhere},
          {"and", TokenKind::kAnd},
          {"or", TokenKind::kOr},
          {"not", TokenKind::kNot},
          {"create", TokenKind::kCreate},
          {"view", TokenKind::kView},
          {"as", TokenKind::kAs},
          {"subclass", TokenKind::kSubclass},
          {"of", TokenKind::kOf},
          {"oid", TokenKind::kOid},
          {"function", TokenKind::kFunction},
          {"signature", TokenKind::kSignature},
          {"max", TokenKind::kMax},
          {"min", TokenKind::kMin},
          {"max_point", TokenKind::kMaxPoint},
          {"min_point", TokenKind::kMinPoint},
          {"subject", TokenKind::kSubject},
          {"to", TokenKind::kTo},
          {"sat", TokenKind::kSat},
          {"contains", TokenKind::kContains},
          {"true", TokenKind::kTrue},
          {"false", TokenKind::kFalse},
          {"exists", TokenKind::kExists},
      };
  return *kw;
}

}  // namespace

Result<std::vector<Token>> Lex(const std::string& text) {
  return Lex(text, nullptr);
}

Result<std::vector<Token>> Lex(const std::string& text,
                               size_t* error_offset) {
  std::vector<Token> out;
  std::vector<size_t> open_parens;  // Indices of the '(' not yet closed.
  size_t i = 0;
  const size_t n = text.size();
  auto push = [&](TokenKind kind, size_t offset, std::string t = "") {
    Token tok;
    tok.kind = kind;
    tok.text = std::move(t);
    tok.offset = offset;
    out.push_back(std::move(tok));
  };
  while (i < n) {
    char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Comment: -- to end of line.
    if (c == '-' && i + 1 < n && text[i + 1] == '-') {
      while (i < n && text[i] != '\n') ++i;
      continue;
    }
    size_t start = i;
    // Identifiers / keywords.
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '@') {
      size_t j = i;
      while (j < n && (std::isalnum(static_cast<unsigned char>(text[j])) ||
                       text[j] == '_' || text[j] == '@' || text[j] == '#')) {
        ++j;
      }
      std::string word = text.substr(i, j - i);
      auto kw = Keywords().find(ToLower(word));
      if (kw != Keywords().end()) {
        push(kw->second, start, word);
      } else {
        push(TokenKind::kIdent, start, word);
      }
      i = j;
      continue;
    }
    // Numbers: 42, 2.5 (no leading sign; '-' is an operator).
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t j = i;
      bool has_dot = false;
      while (j < n && (std::isdigit(static_cast<unsigned char>(text[j])) ||
                       (text[j] == '.' && !has_dot && j + 1 < n &&
                        std::isdigit(static_cast<unsigned char>(
                            text[j + 1]))))) {
        if (text[j] == '.') has_dot = true;
        ++j;
      }
      std::string num = text.substr(i, j - i);
      LYRIC_ASSIGN_OR_RETURN(Rational value, Rational::FromString(num));
      Token tok;
      tok.kind = TokenKind::kNumber;
      tok.text = num;
      tok.number = std::move(value);
      tok.offset = start;
      out.push_back(std::move(tok));
      i = j;
      continue;
    }
    // Strings: 'red' with '' as the escaped quote.
    if (c == '\'') {
      std::string payload;
      size_t j = i + 1;
      bool closed = false;
      while (j < n) {
        if (text[j] == '\'') {
          if (j + 1 < n && text[j + 1] == '\'') {
            payload.push_back('\'');
            j += 2;
            continue;
          }
          closed = true;
          ++j;
          break;
        }
        payload.push_back(text[j]);
        ++j;
      }
      if (!closed) {
        if (error_offset != nullptr) *error_offset = start;
        return Status::ParseError("unterminated string literal at offset " +
                                  std::to_string(start));
      }
      push(TokenKind::kString, start, payload);
      i = j;
      continue;
    }
    // Multi-character operators first.
    auto two = [&](char a, char b) {
      return c == a && i + 1 < n && text[i + 1] == b;
    };
    if (two('|', '=')) { push(TokenKind::kEntails, start); i += 2; continue; }
    if (two('<', '=')) { push(TokenKind::kLe, start); i += 2; continue; }
    if (two('>', '=')) { push(TokenKind::kGe, start); i += 2; continue; }
    if (two('!', '=')) { push(TokenKind::kNeq, start); i += 2; continue; }
    if (two('<', '>')) { push(TokenKind::kNeq, start); i += 2; continue; }
    if (two(':', '=')) { push(TokenKind::kAssign, start); i += 2; continue; }
    if (two('=', '>')) {
      if (i + 2 < n && text[i + 2] == '>') {
        push(TokenKind::kDArrow, start);
        i += 3;
      } else {
        push(TokenKind::kArrow, start);
        i += 2;
      }
      continue;
    }
    switch (c) {
      case '.': push(TokenKind::kDot, start); break;
      case ',': push(TokenKind::kComma, start); break;
      case '(':
        open_parens.push_back(out.size());
        push(TokenKind::kLParen, start);
        break;
      case ')':
        if (!open_parens.empty()) {
          out[open_parens.back()].partner = out.size();
          open_parens.pop_back();
        }
        push(TokenKind::kRParen, start);
        break;
      case '[': push(TokenKind::kLBracket, start); break;
      case ']': push(TokenKind::kRBracket, start); break;
      case '|': push(TokenKind::kBar, start); break;
      case '=': push(TokenKind::kEq, start); break;
      case '<': push(TokenKind::kLt, start); break;
      case '>': push(TokenKind::kGt, start); break;
      case '+': push(TokenKind::kPlus, start); break;
      case '-': push(TokenKind::kMinus, start); break;
      case '*': push(TokenKind::kStar, start); break;
      case '/': push(TokenKind::kSlash, start); break;
      case ';': push(TokenKind::kSemicolon, start); break;
      default:
        if (error_offset != nullptr) *error_offset = start;
        return Status::ParseError(std::string("unexpected character '") + c +
                                  "' at offset " + std::to_string(start));
    }
    ++i;
  }
  push(TokenKind::kEnd, n);
  return out;
}

}  // namespace lyric
