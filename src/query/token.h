// Tokens of the LyriC text syntax.

#ifndef LYRIC_QUERY_TOKEN_H_
#define LYRIC_QUERY_TOKEN_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "arith/rational.h"

namespace lyric {

/// Token kinds. Keywords are matched case-insensitively and mapped onto
/// dedicated kinds; every other identifier is kIdent.
enum class TokenKind {
  kEnd,
  kIdent,    // my_desk, X, drawer
  kNumber,   // 42, 2.5 (payload in `number`)
  kString,   // 'red'
  // Keywords.
  kSelect, kFrom, kWhere, kAnd, kOr, kNot,
  kCreate, kView, kAs, kSubclass, kOf, kOid, kFunction, kSignature,
  kMax, kMin, kMaxPoint, kMinPoint, kSubject, kTo,
  kSat, kContains, kTrue, kFalse, kExists,
  // Punctuation / operators.
  kDot, kComma, kLParen, kRParen, kLBracket, kRBracket, kBar,
  kEq, kNeq, kLe, kLt, kGe, kGt,
  kPlus, kMinus, kStar, kSlash,
  kEntails,   // |=
  kArrow,     // =>   (scalar signature)
  kDArrow,    // =>>  (set-valued signature)
  kAssign,    // :=   (unused, reserved)
  kSemicolon,
};

const char* TokenKindToString(TokenKind kind);

/// One lexed token with its source offset (for error messages).
struct Token {
  static constexpr size_t kNoPartner = SIZE_MAX;

  TokenKind kind = TokenKind::kEnd;
  std::string text;   // Raw identifier / string payload.
  Rational number;    // kNumber payload.
  size_t offset = 0;  // Byte offset in the query text.
  // kLParen: index of the matching ')' in the lexed stream, or kNoPartner
  // when the '(' is never closed. Lets the parser decide at a '(' from
  // the token after its group without parsing the group twice.
  size_t partner = kNoPartner;
};

}  // namespace lyric

#endif  // LYRIC_QUERY_TOKEN_H_
