//===- tests/CrossValidationTest.cpp - Compiled vs baseline analyzer ------===//
//
// The strongest correctness check in the project: the compiled abstract
// WAM (src/analyzer) and the meta-interpreting baseline (src/baseline)
// implement the same analysis by two very different mechanisms, so they
// must compute identical extension tables.
//
//===----------------------------------------------------------------------===//

#include "analyzer/Session.h"
#include "baseline/MetaAnalyzer.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace awam;

namespace {

class CrossValidationTest : public ::testing::Test {
protected:
  /// Runs both analyzers and compares their (label, call, success) sets.
  void check(std::string_view Source, std::string_view EntrySpec) {
    SymbolTable Syms;
    TermArena Arena;
    Result<ParsedProgram> Parsed = parseProgram(Source, Syms, Arena);
    ASSERT_TRUE(Parsed) << Parsed.diag().str();
    Result<CompiledProgram> Compiled = compileProgram(*Parsed, Syms);
    ASSERT_TRUE(Compiled) << Compiled.diag().str();

    AnalysisSession CompiledAnalyzer(*Compiled);
    Result<AnalysisResult> RC = CompiledAnalyzer.analyze(EntrySpec);
    ASSERT_TRUE(RC) << RC.diag().str();

    MetaAnalyzer Baseline(*Parsed, Syms);
    Result<AnalysisResult> RB = Baseline.analyze(EntrySpec);
    ASSERT_TRUE(RB) << RB.diag().str();

    EXPECT_TRUE(RC->Converged);
    EXPECT_TRUE(RB->Converged);

    auto summarize = [&](const AnalysisResult &R) {
      std::vector<std::string> Lines;
      for (const AnalysisResult::Item &I : R.Items)
        Lines.push_back(I.PredLabel + " " + I.Call.str(Syms) + " -> " +
                        (I.Success ? I.Success->str(Syms) : "(fails)"));
      std::sort(Lines.begin(), Lines.end());
      return Lines;
    };
    EXPECT_EQ(summarize(*RC), summarize(*RB)) << "entry: " << EntrySpec;
  }
};

TEST_F(CrossValidationTest, Facts) {
  check("p(a). p(b). p(1).", "p(var)");
}

TEST_F(CrossValidationTest, Append) {
  check("app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).",
        "app(glist, glist, var)");
}

TEST_F(CrossValidationTest, AppendBackward) {
  check("app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).",
        "app(var, var, glist)");
}

TEST_F(CrossValidationTest, NaiveReverse) {
  check("app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).\n"
        "nrev([], []). nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).",
        "nrev(glist, var)");
}

TEST_F(CrossValidationTest, QuickSort) {
  check("partition([], _, [], []).\n"
        "partition([X|L], Y, [X|L1], L2) :- X =< Y, !, "
        "partition(L, Y, L1, L2).\n"
        "partition([X|L], Y, L1, [X|L2]) :- partition(L, Y, L1, L2).\n"
        "qsort([], R, R).\n"
        "qsort([X|L], R, R0) :- partition(L, X, L1, L2), "
        "qsort(L2, R1, R0), qsort(L1, R, [X|R1]).",
        "qsort(glist, var, const)");
}

TEST_F(CrossValidationTest, Arithmetic) {
  check("fact(0, 1).\n"
        "fact(N, F) :- N > 0, N1 is N - 1, fact(N1, F1), F is N * F1.",
        "fact(int, var)");
}

TEST_F(CrossValidationTest, SymbolicDerivative) {
  check("d(U + V, X, DU + DV) :- !, d(U, X, DU), d(V, X, DV).\n"
        "d(U * V, X, DU * V + U * DV) :- !, d(U, X, DU), d(V, X, DV).\n"
        "d(X, X, 1) :- !.\n"
        "d(_, _, 0).",
        "d(g, atom, var)");
}

TEST_F(CrossValidationTest, Mutual) {
  check("even(0). even(s(N)) :- odd(N).\n"
        "odd(s(N)) :- even(N).",
        "even(var)");
}

TEST_F(CrossValidationTest, TypeTests) {
  check("classify(X, atom) :- atom(X).\n"
        "classify(X, int) :- integer(X).\n"
        "classify(X, var) :- var(X).\n"
        "classify(f(Y), str) :- nonvar(Y).",
        "classify(any, var)");
}

TEST_F(CrossValidationTest, MemberSelect) {
  check("member(X, [X|_]).\n"
        "member(X, [_|T]) :- member(X, T).\n"
        "select(X, [X|T], T).\n"
        "select(X, [H|T], [H|R]) :- select(X, T, R).",
        "select(var, glist, var)");
}

} // namespace
