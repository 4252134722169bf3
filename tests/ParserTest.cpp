//===- tests/ParserTest.cpp - Reader and writer unit tests ----------------===//
//
// Operator precedence, lists, clause splitting, variable numbering,
// error reporting, and the parse -> write -> parse round-trip property.
//
//===----------------------------------------------------------------------===//

#include "term/Parser.h"
#include "term/TermWriter.h"

#include <gtest/gtest.h>

using namespace awam;

namespace {

class ParserTest : public ::testing::Test {
protected:
  /// Parses one term and renders it back in canonical (no-operator) form.
  std::string canon(std::string_view Text) {
    Parser P(Text, Syms, Arena);
    Result<const Term *> T = P.readTerm();
    if (!T)
      return "ERROR: " + T.diag().str();
    WriteOptions Options;
    Options.UseOperators = false;
    return writeTerm(*T, Syms, Options);
  }

  /// Parses and re-renders with operators.
  std::string pretty(std::string_view Text) {
    Parser P(Text, Syms, Arena);
    Result<const Term *> T = P.readTerm();
    if (!T)
      return "ERROR: " + T.diag().str();
    return writeTerm(*T, Syms);
  }

  SymbolTable Syms;
  TermArena Arena;
};

TEST_F(ParserTest, AtomsIntsVars) {
  EXPECT_EQ(canon("foo"), "foo");
  EXPECT_EQ(canon("42"), "42");
  EXPECT_EQ(canon("-7"), "-7");
  EXPECT_EQ(canon("X"), "X");
}

TEST_F(ParserTest, Structures) {
  EXPECT_EQ(canon("f(a, b)"), "f(a,b)");
  EXPECT_EQ(canon("f(g(h(1)), X)"), "f(g(h(1)),X)");
}

TEST_F(ParserTest, OperatorPrecedence) {
  EXPECT_EQ(canon("1 + 2 * 3"), "+(1,*(2,3))");
  EXPECT_EQ(canon("(1 + 2) * 3"), "*(+(1,2),3)");
  EXPECT_EQ(canon("1 - 2 - 3"), "-(-(1,2),3)");  // yfx: left assoc
  EXPECT_EQ(canon("a , b , c"), "','(a,','(b,c))"); // xfy: right assoc
  EXPECT_EQ(canon("X is Y + 1"), "is(X,+(Y,1))");
  EXPECT_EQ(canon("2 ** 3"), "**(2,3)");
  EXPECT_EQ(canon("- (3)"), "-(3)");
  EXPECT_EQ(canon("a = b"), "=(a,b)");
  // xfy chains mixed with other priorities and prefix operators.
  EXPECT_EQ(canon("a :- b, c ; d -> e , f ; g"),
            ":-(a,;(','(b,c),;(->(d,','(e,f)),g)))");
  EXPECT_EQ(canon("X = a ^ b ^ c + d"), "=(X,+(^(a,^(b,c)),d))");
  EXPECT_EQ(canon("a , \\+ b , c"), "','(a,','(\\+(b),c))");
  EXPECT_EQ(canon("(a , b) , c"), "','(','(a,b),c)");
}

TEST_F(ParserTest, ClauseNeck) {
  EXPECT_EQ(canon("a :- b, c"), ":-(a,','(b,c))");
}

TEST_F(ParserTest, Lists) {
  // List sugar survives canonical printing; structure is checked via the
  // Term API below.
  EXPECT_EQ(canon("[]"), "[]");
  EXPECT_EQ(canon("[1]"), "[1]");
  EXPECT_EQ(canon("[1, 2]"), "[1,2]");
  EXPECT_EQ(canon("[H|T]"), "[H|T]");
  EXPECT_EQ(canon("[a, b|T]"), "[a,b|T]");
  Parser P("[1, 2]", Syms, Arena);
  Result<const Term *> T = P.readTerm();
  ASSERT_TRUE(T);
  ASSERT_TRUE((*T)->isCons());
  EXPECT_EQ((*T)->arg(0)->intValue(), 1);
  ASSERT_TRUE((*T)->arg(1)->isCons());
  EXPECT_TRUE((*T)->arg(1)->arg(1)->isNil());
}

TEST_F(ParserTest, ListPrettyPrinting) {
  EXPECT_EQ(pretty("[1, 2, 3]"), "[1,2,3]");
  EXPECT_EQ(pretty("[a|T]"), "[a|T]");
  EXPECT_EQ(pretty("1 + 2 * 3"), "1+2*3");
  EXPECT_EQ(pretty("(1 + 2) * 3"), "(1+2)*3");
}

TEST_F(ParserTest, CurlyBraces) {
  EXPECT_EQ(canon("{}"), "{}");
  EXPECT_EQ(canon("{a, b}"), "{','(a,b)}");
  Parser P("{a}", Syms, Arena);
  Result<const Term *> T = P.readTerm();
  ASSERT_TRUE(T);
  EXPECT_EQ((*T)->functor(), SymbolTable::SymCurly);
  EXPECT_EQ((*T)->arity(), 1);
}

TEST_F(ParserTest, SharedVariablesShareNodes) {
  Parser P("f(X, Y, X)", Syms, Arena);
  Result<const Term *> T = P.readTerm();
  ASSERT_TRUE(T);
  EXPECT_EQ((*T)->arg(0), (*T)->arg(2));
  EXPECT_NE((*T)->arg(0), (*T)->arg(1));
  EXPECT_EQ(P.lastTermNumVars(), 2);
}

TEST_F(ParserTest, AnonymousVariablesAreDistinct) {
  Parser P("f(_, _)", Syms, Arena);
  Result<const Term *> T = P.readTerm();
  ASSERT_TRUE(T);
  EXPECT_NE((*T)->arg(0), (*T)->arg(1));
  EXPECT_EQ(P.lastTermNumVars(), 2);
}

TEST_F(ParserTest, ErrorsCarryPositions) {
  Parser P("f(a,\n   )", Syms, Arena);
  Result<const Term *> T = P.readTerm();
  ASSERT_FALSE(T);
  EXPECT_EQ(T.diag().Line, 2);
}

TEST_F(ParserTest, MissingEndReported) {
  Parser P("f(a) g", Syms, Arena);
  Result<const Term *> T = P.readTerm();
  ASSERT_FALSE(T);
  EXPECT_NE(T.diag().Message.find("'.'"), std::string::npos);
}

TEST_F(ParserTest, ProgramSplitsClauses) {
  Result<ParsedProgram> P =
      parseProgram("f(a).\nf(X) :- g(X), h.\n:- note.", Syms, Arena);
  ASSERT_TRUE(P) << P.diag().str();
  ASSERT_EQ(P->Clauses.size(), 2u);
  EXPECT_TRUE(P->Clauses[0].Body.empty());
  ASSERT_EQ(P->Clauses[1].Body.size(), 2u);
  ASSERT_EQ(P->Directives.size(), 1u);
}

TEST_F(ParserTest, TrueFilteredFromBody) {
  Result<ParsedProgram> P = parseProgram("f :- true, g, true.", Syms, Arena);
  ASSERT_TRUE(P);
  ASSERT_EQ(P->Clauses[0].Body.size(), 1u);
}

TEST_F(ParserTest, NonCallableHeadRejected) {
  Result<ParsedProgram> P = parseProgram("42 :- g.", Syms, Arena);
  EXPECT_FALSE(P);
}

TEST_F(ParserTest, UnterminatedBlockCommentRejected) {
  // The rest of the input must not be dropped silently.
  Result<ParsedProgram> P = parseProgram("p. /* oops\nq. r.", Syms, Arena);
  ASSERT_FALSE(P);
  EXPECT_NE(P.diag().Message.find("unterminated block comment"),
            std::string::npos)
      << P.diag().str();
}

TEST_F(ParserTest, CharacterCodeAtEndOfInputRejected) {
  // Not the integer 0.
  Result<ParsedProgram> P = parseProgram("p(X) :- X = 0'", Syms, Arena);
  ASSERT_FALSE(P);
  EXPECT_NE(P.diag().Message.find("0'"), std::string::npos)
      << P.diag().str();
}

TEST_F(ParserTest, NulByteIsAnErrorAtItsPosition) {
  // Everything after a NUL used to be dropped without a word: this read
  // as two clauses and analyzed p/1 as (a).
  using namespace std::string_literals;
  Result<ParsedProgram> P =
      parseProgram("main :- p(X).\np(a).\n\0p(b).\n"s, Syms, Arena);
  ASSERT_FALSE(P);
  EXPECT_EQ(P.diag().Line, 3);
  EXPECT_EQ(P.diag().Column, 1);
  EXPECT_EQ(P.diag().Message, "unexpected NUL byte");
  // Garbage after the NUL is no longer accepted either.
  Result<ParsedProgram> Q = parseProgram("p(a).\n\0)))"s, Syms, Arena);
  ASSERT_FALSE(Q);
  EXPECT_EQ(Q.diag().str(), "line 2, column 1: unexpected NUL byte");
  // Inside a term, the error is still the NUL's.
  Result<ParsedProgram> R = parseProgram("p(a\0b)."s, Syms, Arena);
  ASSERT_FALSE(R);
  EXPECT_EQ(R.diag().str(), "line 1, column 4: unexpected NUL byte");
}

TEST_F(ParserTest, NulByteInACommentIsIgnored) {
  using namespace std::string_literals;
  Result<ParsedProgram> P = parseProgram(
      "p(a). % \0 note\np(b). /* \0\n */ p(c).\n"s, Syms, Arena);
  ASSERT_TRUE(P) << P.diag().str();
  EXPECT_EQ(P->Clauses.size(), 3u);
}

TEST_F(ParserTest, OtherLexicalErrorsReadAsTheExpectedToken) {
  // Only a NUL byte is reported as itself. Any other lexical error where
  // the reader expects '.' or ')' reads as that missing token.
  Result<ParsedProgram> P = parseProgram("p(a) 'abc", Syms, Arena);
  ASSERT_FALSE(P);
  EXPECT_EQ(P.diag().str(),
            "line 1, column 6: expected '.' at end of clause");
  Result<ParsedProgram> Q = parseProgram("p(a 'abc", Syms, Arena);
  ASSERT_FALSE(Q);
  EXPECT_EQ(Q.diag().str(),
            "line 1, column 5: expected ',' or ')' in argument list");
  Result<ParsedProgram> R = parseProgram("p(a) /* open", Syms, Arena);
  ASSERT_FALSE(R);
  EXPECT_EQ(R.diag().str(),
            "line 1, column 6: expected '.' at end of clause");
}

// Stack safety: operator chains fold in a loop, so their length is not
// bounded by the stack; nesting is bounded by kMaxTermNesting. All of
// these run under the default stack.

/// "Head :- g, g, ..., g." with \p N goals.
std::string longConjunction(int N) {
  std::string S = "p :- ";
  for (int I = 0; I != N; ++I)
    S += I ? ", g" : "g";
  return S + ".";
}

TEST_F(ParserTest, LongConjunctionParses) {
  constexpr int N = 200000;
  Result<ParsedProgram> P = parseProgram(longConjunction(N), Syms, Arena);
  ASSERT_TRUE(P) << P.diag().str();
  ASSERT_EQ(P->Clauses.size(), 1u);
  EXPECT_EQ(P->Clauses[0].Body.size(), static_cast<size_t>(N));
}

TEST_F(ParserTest, LongCaretChainParses) {
  constexpr int N = 200000;
  std::string S = "X = a";
  for (int I = 1; I != N; ++I)
    S += "^a";
  Parser Reader(S, Syms, Arena);
  Result<const Term *> T = Reader.readTerm();
  ASSERT_TRUE(T) << T.diag().str();
  // =(X, ^(a, ^(a, ...))): walk the right spine.
  const Term *Cur = (*T)->arg(1);
  int Length = 1;
  Symbol Caret = Syms.intern("^");
  while (Cur->isStruct() && Cur->functor() == Caret) {
    EXPECT_TRUE(Cur->arg(0)->isAtom());
    Cur = Cur->arg(1);
    ++Length;
  }
  EXPECT_EQ(Length, N);
}

TEST_F(ParserTest, DeepNestingIsAnErrorNotACrash) {
  constexpr int N = 100000;
  std::string S;
  for (int I = 0; I != N; ++I)
    S += "f(";
  S += "a";
  S.append(N, ')');
  Parser Reader(S, Syms, Arena);
  Result<const Term *> T = Reader.readTerm();
  ASSERT_FALSE(T);
  EXPECT_NE(T.diag().Message.find("nesting exceeds"), std::string::npos)
      << T.diag().str();
  // The same holds for brackets, lists and prefix operators.
  for (std::string_view Open : {"(", "[", "{", "\\+ ", "- "}) {
    std::string Deep;
    for (int I = 0; I != N; ++I)
      Deep += Open;
    Deep += "a";
    Parser R(Deep, Syms, Arena);
    Result<const Term *> D = R.readTerm();
    ASSERT_FALSE(D) << Open;
    EXPECT_NE(D.diag().Message.find("nesting exceeds"), std::string::npos)
        << Open << ": " << D.diag().str();
  }
}

TEST_F(ParserTest, NestingUpToTheLimitParses) {
  // kMaxTermNesting counts the primaries on the reader's path, the
  // innermost atom included. Every kind of nesting reaches the limit
  // (the sanitizer CI job runs this under the default stack too).
  struct Nesting {
    std::string_view Open, Close;
  };
  for (Nesting N : {Nesting{"f(", ")"}, Nesting{"(", ")"},
                    Nesting{"[", "]"}, Nesting{"{", "}"},
                    Nesting{"\\+ ", ""}, Nesting{"[a|", "]"}}) {
    auto nested = [&](int Levels) {
      std::string S;
      for (int I = 1; I != Levels; ++I)
        S += N.Open;
      S += "a";
      for (int I = 1; I != Levels; ++I)
        S += N.Close;
      return S;
    };
    // The reader keeps a view of its source, so the text outlives it.
    std::string Deepest = nested(kMaxTermNesting);
    Parser AtLimit(Deepest, Syms, Arena);
    Result<const Term *> T = AtLimit.readTerm();
    EXPECT_TRUE(T) << N.Open << ": " << (T ? "" : T.diag().str());
    std::string TooDeepText = nested(kMaxTermNesting + 1);
    Parser TooDeep(TooDeepText, Syms, Arena);
    EXPECT_FALSE(TooDeep.readTerm()) << N.Open;
  }
}

// Round-trip: parse, pretty-print, re-parse, canonical forms must match.
class RoundTripTest : public ParserTest,
                      public ::testing::WithParamInterface<const char *> {};

TEST_P(RoundTripTest, WriteThenParseIsIdentity) {
  Parser P1(GetParam(), Syms, Arena);
  Result<const Term *> T1 = P1.readTerm();
  ASSERT_TRUE(T1) << GetParam();
  std::string Printed = writeTerm(*T1, Syms);
  Parser P2(Printed, Syms, Arena);
  Result<const Term *> T2 = P2.readTerm();
  ASSERT_TRUE(T2) << Printed;
  WriteOptions Canon;
  Canon.UseOperators = false;
  EXPECT_EQ(writeTerm(*T1, Syms, Canon), writeTerm(*T2, Syms, Canon))
      << "via " << Printed;
}

INSTANTIATE_TEST_SUITE_P(
    Samples, RoundTripTest,
    ::testing::Values(
        "f(a, B, [1,2|T])", "1 + 2 * 3 - 4", "(1 + 2) * (3 - 4)",
        "X is Y mod 3", "a :- b, c, d", "[[1],[2,3],[]]",
        "'quoted atom'(x)", "f(-1, - 1)", "p :- q ; r",
        "t(A) :- A = [x|_], g", "1 < 2", "X = f(Y, g(Z))",
        "d(U + V, X, DU + DV)", "{goal, extra}", "- (- (3))",
        "h([a|[b|[c|[]]]])"));

} // namespace
