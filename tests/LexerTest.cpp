//===- tests/LexerTest.cpp - Tokenizer unit tests -------------------------===//

#include "term/Lexer.h"

#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <tuple>

using namespace awam;

namespace {

std::vector<Token> lexAll(std::string_view Source) {
  // A token's text can live in its lexer (escaped quoted atoms, error
  // messages), so every lexer made here stays alive until the test exits.
  static std::deque<Lexer> Lexers;
  Lexer &L = Lexers.emplace_back(Source);
  std::vector<Token> Out;
  for (;;) {
    Token T = L.next();
    if (T.Kind == TokenKind::EndOfFile)
      return Out;
    Out.push_back(T);
    if (T.Kind == TokenKind::Error)
      return Out;
  }
}

TEST(LexerTest, SimpleAtomsAndVariables) {
  auto Ts = lexAll("foo Bar _baz _ x1");
  ASSERT_EQ(Ts.size(), 5u);
  EXPECT_EQ(Ts[0].Kind, TokenKind::Atom);
  EXPECT_EQ(Ts[0].Text, "foo");
  EXPECT_EQ(Ts[1].Kind, TokenKind::Var);
  EXPECT_EQ(Ts[1].Text, "Bar");
  EXPECT_EQ(Ts[2].Kind, TokenKind::Var);
  EXPECT_EQ(Ts[2].Text, "_baz");
  EXPECT_EQ(Ts[3].Kind, TokenKind::Var);
  EXPECT_EQ(Ts[3].Text, "_");
  EXPECT_EQ(Ts[4].Kind, TokenKind::Atom);
  EXPECT_EQ(Ts[4].Text, "x1");
}

TEST(LexerTest, Integers) {
  auto Ts = lexAll("0 42 123456");
  ASSERT_EQ(Ts.size(), 3u);
  EXPECT_EQ(Ts[0].IntVal, 0);
  EXPECT_EQ(Ts[1].IntVal, 42);
  EXPECT_EQ(Ts[2].IntVal, 123456);
}

TEST(LexerTest, IntegerLiteralAtInt64Max) {
  auto Ts = lexAll("9223372036854775807");
  ASSERT_EQ(Ts.size(), 1u);
  EXPECT_EQ(Ts[0].Kind, TokenKind::Int);
  EXPECT_EQ(Ts[0].IntVal, 9223372036854775807LL);
}

TEST(LexerTest, IntegerLiteralOverflowIsAnError) {
  // One past INT64_MAX used to wrap silently (signed-overflow UB).
  auto Ts = lexAll("9223372036854775808");
  ASSERT_EQ(Ts.size(), 1u);
  EXPECT_EQ(Ts[0].Kind, TokenKind::Error);
  EXPECT_EQ(Ts[0].Text, "integer literal overflows 64 bits");
}

TEST(LexerTest, HugeIntegerLiteralIsAnError) {
  auto Ts = lexAll("123456789012345678901234567890 foo");
  // The whole literal is consumed before the error token is emitted, and
  // lexing stops at the error.
  ASSERT_EQ(Ts.size(), 1u);
  EXPECT_EQ(Ts[0].Kind, TokenKind::Error);
  EXPECT_EQ(Ts[0].Text, "integer literal overflows 64 bits");
}

TEST(LexerTest, CharacterCodes) {
  auto Ts = lexAll("0'a 0'  0'\\n");
  ASSERT_EQ(Ts.size(), 3u);
  EXPECT_EQ(Ts[0].IntVal, 'a');
  EXPECT_EQ(Ts[1].IntVal, ' ');
  EXPECT_EQ(Ts[2].IntVal, '\n');
}

TEST(LexerTest, SymbolicAtoms) {
  auto Ts = lexAll(":- ?- = \\= == @< =.. -->");
  ASSERT_EQ(Ts.size(), 8u);
  for (const Token &T : Ts)
    EXPECT_EQ(T.Kind, TokenKind::Atom);
  EXPECT_EQ(Ts[0].Text, ":-");
  EXPECT_EQ(Ts[3].Text, "\\=");
  EXPECT_EQ(Ts[4].Text, "==");
  EXPECT_EQ(Ts[6].Text, "=..");
}

TEST(LexerTest, QuotedAtoms) {
  auto Ts = lexAll("'hello world' 'it''s' 'a\\nb'");
  ASSERT_EQ(Ts.size(), 3u);
  EXPECT_EQ(Ts[0].Text, "hello world");
  EXPECT_EQ(Ts[1].Text, "it's");
  EXPECT_EQ(Ts[2].Text, "a\nb");
}

TEST(LexerTest, UnterminatedQuoteIsError) {
  auto Ts = lexAll("'oops");
  ASSERT_FALSE(Ts.empty());
  EXPECT_EQ(Ts.back().Kind, TokenKind::Error);
}

TEST(LexerTest, EndTokenVsDotOperator) {
  // '.' followed by layout ends a clause; '=..' stays one atom.
  auto Ts = lexAll("a. X =.. L.");
  ASSERT_EQ(Ts.size(), 6u);
  EXPECT_EQ(Ts[1].Kind, TokenKind::End);
  EXPECT_EQ(Ts[3].Text, "=..");
  EXPECT_EQ(Ts[5].Kind, TokenKind::End);
}

TEST(LexerTest, Comments) {
  auto Ts = lexAll("a % line comment\nb /* block\ncomment */ c");
  ASSERT_EQ(Ts.size(), 3u);
  EXPECT_EQ(Ts[0].Text, "a");
  EXPECT_EQ(Ts[1].Text, "b");
  EXPECT_EQ(Ts[2].Text, "c");
}

TEST(LexerTest, FunctorParenIsOpenCT) {
  auto Ts = lexAll("f(a) g (b)");
  // f OpenCT a ')' g '(' b ')'
  ASSERT_EQ(Ts.size(), 8u);
  EXPECT_EQ(Ts[1].Kind, TokenKind::OpenCT);
  EXPECT_EQ(Ts[5].Kind, TokenKind::Punct); // '(' after layout
  EXPECT_EQ(Ts[5].Text, "(");
}

TEST(LexerTest, CutAndSemicolonAreSoloAtoms) {
  auto Ts = lexAll("! ;");
  ASSERT_EQ(Ts.size(), 2u);
  EXPECT_EQ(Ts[0].Kind, TokenKind::Atom);
  EXPECT_EQ(Ts[0].Text, "!");
  EXPECT_EQ(Ts[1].Text, ";");
}

TEST(LexerTest, PositionsTracked) {
  Lexer L("a\n  b");
  Token A = L.next();
  Token B = L.next();
  EXPECT_EQ(A.Line, 1);
  EXPECT_EQ(A.Column, 1);
  EXPECT_EQ(B.Line, 2);
  EXPECT_EQ(B.Column, 3);
}

/// Line and column of each token of \p Source, as "L:C".
std::vector<std::string> positions(std::string_view Source) {
  std::vector<std::string> Out;
  for (const Token &T : lexAll(Source))
    Out.push_back(std::to_string(T.Line) + ":" + std::to_string(T.Column));
  return Out;
}

TEST(LexerTest, PositionsAfterMultiLineBlockComment) {
  EXPECT_EQ(positions("a /* one\ntwo */ b\n/*\n\n*/  c"),
            (std::vector<std::string>{"1:1", "2:8", "5:5"}));
  // A comment that ends a line leaves the next line's columns alone.
  EXPECT_EQ(positions("/* x */\n  y"), (std::vector<std::string>{"2:3"}));
}

TEST(LexerTest, PositionsAfterMultiLineQuotedAtom) {
  // The atom spans two source newlines; its '' and \n escapes are one
  // character of text each but two columns of source.
  auto Ts = lexAll("x 'it''s\na\\nb\nc' y\n z");
  ASSERT_EQ(Ts.size(), 4u);
  EXPECT_EQ(Ts[1].Text, "it's\na\nb\nc");
  EXPECT_EQ(Ts[1].Line, 1);
  EXPECT_EQ(Ts[1].Column, 3);
  EXPECT_EQ(positions("x 'it''s\na\\nb\nc' y\n z"),
            (std::vector<std::string>{"1:1", "1:3", "3:4", "4:2"}));
  EXPECT_EQ(positions("'a\\n''b' c"),
            (std::vector<std::string>{"1:1", "1:10"}));
}

TEST(LexerTest, PositionsAfterTabsAndCrLf) {
  // A tab and a carriage return are one column each.
  EXPECT_EQ(positions("a\tb\r\n\tc\r\n  d"),
            (std::vector<std::string>{"1:1", "1:3", "2:2", "3:3"}));
}

TEST(LexerTest, PositionsAfterCharacterCodes) {
  EXPECT_EQ(positions("0'a x 0'\\n y\n0'  z"),
            (std::vector<std::string>{"1:1", "1:5", "1:7", "1:12", "2:1",
                                      "2:5"}));
  // A literal newline as the character ends the line.
  auto Ts = lexAll("0'\n w");
  ASSERT_EQ(Ts.size(), 2u);
  EXPECT_EQ(Ts[0].IntVal, '\n');
  EXPECT_EQ(positions("0'\n w"), (std::vector<std::string>{"1:1", "2:2"}));
}

TEST(LexerTest, PunctuationInventory) {
  auto Ts = lexAll("[ ] { } , |");
  ASSERT_EQ(Ts.size(), 6u);
  for (const Token &T : Ts)
    EXPECT_EQ(T.Kind, TokenKind::Punct);
}

TEST(LexerTest, UnterminatedBlockCommentIsAnError) {
  // The rest of the input must not be dropped silently.
  auto Ts = lexAll("p. /* oops\nq. r.");
  ASSERT_EQ(Ts.size(), 3u);
  EXPECT_EQ(Ts[2].Kind, TokenKind::Error);
  EXPECT_EQ(Ts[2].Text, "unterminated block comment");
  EXPECT_EQ(Ts[2].Line, 1);
  EXPECT_EQ(Ts[2].Column, 4);
  // "/*/" does not close itself.
  auto Ts2 = lexAll("a /*/");
  ASSERT_EQ(Ts2.size(), 2u);
  EXPECT_EQ(Ts2[1].Kind, TokenKind::Error);
}

TEST(LexerTest, CharacterCodeCutOffByEndOfInputIsAnError) {
  // Not the integer 0.
  for (std::string_view Src : {"X = 0'", "X = 0'\\"}) {
    auto Ts = lexAll(Src);
    ASSERT_EQ(Ts.size(), 3u) << Src;
    EXPECT_EQ(Ts[2].Kind, TokenKind::Error) << Src;
    EXPECT_EQ(Ts[2].Text, "missing character after 0'") << Src;
    EXPECT_EQ(Ts[2].Column, 5) << Src;
  }
}

TEST(LexerTest, QuotedAtomTextOutlivesLaterTokens) {
  // Escaped atoms are rebuilt into storage the lexer owns; the text stays
  // valid while the lexer reads on.
  Lexer L("'a''b' 'c\\nd' 'plain' x");
  Token A = L.next();
  Token B = L.next();
  Token C = L.next();
  L.next();
  EXPECT_EQ(A.Text, "a'b");
  EXPECT_EQ(B.Text, "c\nd");
  EXPECT_EQ(C.Text, "plain");
}

TEST(LexerTest, NulByteIsAnErrorNotTheEndOfInput) {
  // The input ends at the end of the buffer. A NUL byte before it is an
  // error at its own line and column, wherever a token could start or
  // inside a quoted atom or a character code.
  using namespace std::string_literals;
  const std::string Src = "p(a).\n\0p(b)."s;
  auto Ts = lexAll(Src);
  ASSERT_EQ(Ts.size(), 6u);
  EXPECT_EQ(Ts[4].Kind, TokenKind::End);
  EXPECT_EQ(Ts[5].Kind, TokenKind::Error);
  EXPECT_EQ(Ts[5].Text, "unexpected NUL byte");
  EXPECT_EQ(Ts[5].Line, 2);
  EXPECT_EQ(Ts[5].Column, 1);
  for (const auto &[Src, Line, Column] :
       {std::tuple{"x 'a\0b'"s, 1, 5}, std::tuple{"x\n 0'\0"s, 2, 4},
        std::tuple{"0'\\\0"s, 1, 4}, std::tuple{"'a\\\0'"s, 1, 4},
        std::tuple{"a.\0"s, 1, 3}}) {
    auto Got = lexAll(Src);
    ASSERT_FALSE(Got.empty()) << Src;
    EXPECT_EQ(Got.back().Kind, TokenKind::Error) << Src;
    EXPECT_EQ(Got.back().Text, "unexpected NUL byte") << Src;
    EXPECT_EQ(Got.back().Line, Line) << Src;
    EXPECT_EQ(Got.back().Column, Column) << Src;
  }
}

TEST(LexerTest, NulByteInACommentIsCommentText) {
  using namespace std::string_literals;
  const std::string Src = "a % x\0y\nb /* \0 */ c\0"s;
  auto Ts = lexAll(Src);
  ASSERT_EQ(Ts.size(), 4u);
  EXPECT_EQ(Ts[0].Text, "a");
  EXPECT_EQ(Ts[1].Text, "b");
  EXPECT_EQ(Ts[2].Text, "c");
  EXPECT_EQ(positions(Src),
            (std::vector<std::string>{"1:1", "2:1", "2:11", "2:12"}));
  EXPECT_EQ(Ts[3].Kind, TokenKind::Error);
}

TEST(LexerTest, PeekDoesNotConsume) {
  Lexer L("a b");
  EXPECT_EQ(L.peek().Text, "a");
  EXPECT_EQ(L.peek().Text, "a");
  EXPECT_EQ(L.next().Text, "a");
  EXPECT_EQ(L.next().Text, "b");
}

} // namespace
