#include "query/lexer.h"

#include <gtest/gtest.h>

namespace lyric {
namespace {

std::vector<TokenKind> Kinds(const std::string& text) {
  auto tokens = Lex(text).value();
  std::vector<TokenKind> out;
  for (const Token& t : tokens) out.push_back(t.kind);
  return out;
}

TEST(LexerTest, KeywordsCaseInsensitive) {
  EXPECT_EQ(Kinds("SELECT select SeLeCt"),
            (std::vector<TokenKind>{TokenKind::kSelect, TokenKind::kSelect,
                                    TokenKind::kSelect, TokenKind::kEnd}));
}

TEST(LexerTest, IdentifiersKeepCase) {
  auto tokens = Lex("My_Desk drawer X").value();
  EXPECT_EQ(tokens[0].text, "My_Desk");
  EXPECT_EQ(tokens[1].text, "drawer");
  EXPECT_EQ(tokens[2].text, "X");
}

TEST(LexerTest, Numbers) {
  auto tokens = Lex("42 2.5 0.125").value();
  EXPECT_EQ(tokens[0].number, Rational(42));
  EXPECT_EQ(tokens[1].number, Rational(5, 2));
  EXPECT_EQ(tokens[2].number, Rational(1, 8));
}

TEST(LexerTest, NegativeIsOperatorPlusNumber) {
  EXPECT_EQ(Kinds("-3"), (std::vector<TokenKind>{TokenKind::kMinus,
                                                 TokenKind::kNumber,
                                                 TokenKind::kEnd}));
}

TEST(LexerTest, Strings) {
  auto tokens = Lex("'red' 'it''s'").value();
  EXPECT_EQ(tokens[0].kind, TokenKind::kString);
  EXPECT_EQ(tokens[0].text, "red");
  EXPECT_EQ(tokens[1].text, "it's");
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_FALSE(Lex("'oops").ok());
}

TEST(LexerTest, OperatorsGreedy) {
  EXPECT_EQ(Kinds("<= < >= > != = |= | => =>>"),
            (std::vector<TokenKind>{
                TokenKind::kLe, TokenKind::kLt, TokenKind::kGe, TokenKind::kGt,
                TokenKind::kNeq, TokenKind::kEq, TokenKind::kEntails,
                TokenKind::kBar, TokenKind::kArrow, TokenKind::kDArrow,
                TokenKind::kEnd}));
}

TEST(LexerTest, PathPunctuation) {
  EXPECT_EQ(Kinds("X.drawer[Y].color"),
            (std::vector<TokenKind>{
                TokenKind::kIdent, TokenKind::kDot, TokenKind::kIdent,
                TokenKind::kLBracket, TokenKind::kIdent, TokenKind::kRBracket,
                TokenKind::kDot, TokenKind::kIdent, TokenKind::kEnd}));
}

TEST(LexerTest, CommentsSkipped) {
  EXPECT_EQ(Kinds("SELECT -- the answer\n X"),
            (std::vector<TokenKind>{TokenKind::kSelect, TokenKind::kIdent,
                                    TokenKind::kEnd}));
}

TEST(LexerTest, CommentVsMinus) {
  // A single '-' stays an operator; '--' starts a comment.
  EXPECT_EQ(Kinds("a - b"),
            (std::vector<TokenKind>{TokenKind::kIdent, TokenKind::kMinus,
                                    TokenKind::kIdent, TokenKind::kEnd}));
  EXPECT_EQ(Kinds("a -- b"),
            (std::vector<TokenKind>{TokenKind::kIdent, TokenKind::kEnd}));
}

TEST(LexerTest, UnexpectedCharacterFails) {
  auto r = Lex("a $ b");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError());
}

TEST(LexerTest, OffsetsRecorded) {
  auto tokens = Lex("ab cd").value();
  EXPECT_EQ(tokens[0].offset, 0u);
  EXPECT_EQ(tokens[1].offset, 3u);
}

TEST(LexerTest, ParenthesesKnowTheirPartners) {
  // ( a ( b ) ( ) c
  // 0 1 2 3 4 5 6 7
  auto tokens = Lex("(a (b) () c").value();
  EXPECT_EQ(tokens[0].partner, Token::kNoPartner);  // Never closed.
  EXPECT_EQ(tokens[2].partner, 4u);
  EXPECT_EQ(tokens[5].partner, 6u);
  EXPECT_EQ(tokens[1].partner, Token::kNoPartner);
  // A stray ')' closes nothing.
  tokens = Lex(") (x))").value();
  EXPECT_EQ(tokens[1].partner, 3u);
}

TEST(LexerTest, MaxPointKeyword) {
  EXPECT_EQ(Kinds("MAX_POINT MIN_POINT MAX MIN"),
            (std::vector<TokenKind>{TokenKind::kMaxPoint, TokenKind::kMinPoint,
                                    TokenKind::kMax, TokenKind::kMin,
                                    TokenKind::kEnd}));
}

}  // namespace
}  // namespace lyric
