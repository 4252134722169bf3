//===- tests/AnalyzerTest.cpp - Abstract WAM end-to-end tests -------------===//
//
// Integration tests of the compiled dataflow analyzer: mode/type/aliasing
// inference on small programs, fixpoint convergence, and memoization.
//
//===----------------------------------------------------------------------===//

#include "analyzer/Session.h"

#include <gtest/gtest.h>

using namespace awam;

namespace {

class AnalyzerTest : public ::testing::Test {
protected:
  void compile(std::string_view Source) {
    Result<CompiledProgram> P = compileSource(Source, Syms, Arena);
    ASSERT_TRUE(P) << P.diag().str();
    Program = std::make_unique<CompiledProgram>(P.take());
  }

  /// Runs the analyzer; fails the test on analysis error.
  AnalysisResult analyze(std::string_view EntrySpec,
                         AnalyzerOptions Options = {}) {
    AnalysisSession A(*Program, Options);
    Result<AnalysisResult> R = A.analyze(EntrySpec);
    EXPECT_TRUE(R) << R.diag().str();
    return R ? R.take() : AnalysisResult{};
  }

  /// Success pattern text for the entry "pred(...)" of the last analysis,
  /// or "(fails)" / "(missing)".
  std::string successOf(const AnalysisResult &R, std::string_view Label,
                        std::string_view CallText = "") {
    for (const AnalysisResult::Item &I : R.Items) {
      if (I.PredLabel != Label)
        continue;
      if (!CallText.empty() && I.Call.str(Syms) != CallText)
        continue;
      return I.Success ? I.Success->str(Syms) : "(fails)";
    }
    return "(missing)";
  }

  std::string callOf(const AnalysisResult &R, std::string_view Label) {
    for (const AnalysisResult::Item &I : R.Items)
      if (I.PredLabel == Label)
        return I.Call.str(Syms);
    return "(missing)";
  }

  SymbolTable Syms;
  TermArena Arena;
  std::unique_ptr<CompiledProgram> Program;
};

TEST_F(AnalyzerTest, FactTypes) {
  compile("p(a). p(b).");
  AnalysisResult R = analyze("p(var)");
  EXPECT_TRUE(R.Converged);
  EXPECT_EQ(successOf(R, "p/1"), "(atom)");
}

TEST_F(AnalyzerTest, FactTypesMixedConstants) {
  compile("p(a). p(1).");
  AnalysisResult R = analyze("p(var)");
  EXPECT_EQ(successOf(R, "p/1"), "(const)");
}

TEST_F(AnalyzerTest, SingleFactKeepsSpecificConstant) {
  compile("p(a).");
  AnalysisResult R = analyze("p(var)");
  EXPECT_EQ(successOf(R, "p/1"), "(a)");
}

TEST_F(AnalyzerTest, StructureSuccess) {
  compile("p(f(1, X), X).");
  AnalysisResult R = analyze("p(var, var)");
  // X is still free on success and aliased between the structure argument
  // and the second argument.
  std::string S = successOf(R, "p/2");
  EXPECT_EQ(S, "(f(1,_S2=var), _S2)") << S;
}

TEST_F(AnalyzerTest, PaperSectionFourExample) {
  // The paper's running example: p(a, [f(V)|L]) with calling pattern
  // p(atom, glist). The head unification should produce
  // glist/[f(g)|glist], i.e. success (a, [f(g)|glist]).
  compile("p(a, [f(V)|L]) :- q(V, L). q(_, _).");
  AnalysisResult R = analyze("p(atom, glist)");
  EXPECT_TRUE(R.Converged);
  EXPECT_EQ(successOf(R, "p/2"), "(a, [f(g)|glist])");
  // q was called with the extracted element argument and list tail.
  EXPECT_EQ(callOf(R, "q/2"), "(g, glist)");
}

TEST_F(AnalyzerTest, AppendGroundLists) {
  compile("app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).");
  AnalysisResult R = analyze("app(glist, glist, var)");
  EXPECT_TRUE(R.Converged);
  // Result argument becomes a ground list. The arg2/arg3 sharing of the
  // base clause is dropped by the lub with the recursive clause.
  EXPECT_EQ(successOf(R, "app/3"), "(glist, glist, glist)");
}

TEST_F(AnalyzerTest, AppendInfersOutputMode) {
  compile("app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).");
  AnalysisResult R = analyze("app(glist, glist, var)");
  std::string Modes = formatModes(R, Syms);
  // First two arguments ground input (++), third free (-).
  EXPECT_NE(Modes.find("++"), std::string::npos) << Modes;
  EXPECT_NE(Modes.find("-"), std::string::npos) << Modes;
}

TEST_F(AnalyzerTest, NaiveReverse) {
  compile("app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).\n"
          "nrev([], []). nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).");
  AnalysisResult R = analyze("nrev(glist, var)");
  EXPECT_TRUE(R.Converged);
  EXPECT_EQ(successOf(R, "nrev/2"), "(glist, glist)");
}

TEST_F(AnalyzerTest, ArithmeticMakesGround) {
  compile("double(X, Y) :- Y is X * 2.");
  AnalysisResult R = analyze("double(g, var)");
  EXPECT_EQ(successOf(R, "double/2"), "(g, int)");
}

TEST_F(AnalyzerTest, ArithmeticNarrowsInputExpression) {
  // Success of `is` implies the right-hand side was ground.
  compile("f(X, Y) :- Y is X + 1.");
  AnalysisResult R = analyze("f(any, var)");
  EXPECT_EQ(successOf(R, "f/2"), "(g, int)");
}

TEST_F(AnalyzerTest, RecursionReachesFixpoint) {
  compile("nat(0). nat(s(N)) :- nat(N).");
  AnalysisResult R = analyze("nat(var)");
  EXPECT_TRUE(R.Converged);
  // 0 |_| s(...) generalizes to g (both clauses ground the argument).
  EXPECT_EQ(successOf(R, "nat/1"), "(g)");
}

TEST_F(AnalyzerTest, FailurePropagates) {
  compile("p(X) :- q(X). q(a) :- fail.");
  AnalysisResult R = analyze("p(var)");
  EXPECT_EQ(successOf(R, "p/1"), "(fails)");
}

TEST_F(AnalyzerTest, UndefinedCalleeFails) {
  compile("p(X) :- undefined_thing(X).");
  AnalysisResult R = analyze("p(var)");
  EXPECT_EQ(successOf(R, "p/1"), "(fails)");
}

TEST_F(AnalyzerTest, MultipleCallingPatterns) {
  compile("id(X, X).\n"
          "caller1(Y) :- id(a, Y).\n"
          "caller2(Y) :- id(Y, b).");
  AnalysisResult R = analyze("caller1(var)");
  EXPECT_EQ(successOf(R, "caller1/1"), "(a)");
  compile("id(X, X).\n"
          "main :- id(a, _), id(_, b).");
  R = analyze("main");
  // Two distinct calling patterns for id/2 recorded.
  int Count = 0;
  for (const AnalysisResult::Item &I : R.Items)
    if (I.PredLabel == "id/2")
      ++Count;
  EXPECT_EQ(Count, 2);
}

TEST_F(AnalyzerTest, AliasingTrackedAcrossCall) {
  compile("alias(X, X).\n"
          "p(A, B) :- alias(A, B).");
  AnalysisResult R = analyze("p(var, var)");
  // A and B are aliased on success.
  EXPECT_EQ(successOf(R, "p/2"), "(_S0=var, _S0)");
}

TEST_F(AnalyzerTest, CutIsIgnoredSoundly) {
  compile("max(X, Y, X) :- X >= Y, !.\n"
          "max(_, Y, Y).");
  AnalysisResult R = analyze("max(g, g, var)");
  // Both clauses contribute (cut ignored): result is ground either way;
  // each clause's arg/result sharing is one-sided and thus dropped.
  EXPECT_EQ(successOf(R, "max/3"), "(g, g, g)");
}

TEST_F(AnalyzerTest, TypeTestNarrows) {
  compile("p(X) :- atom(X).\n"
          "q(X) :- integer(X).\n"
          "r(X) :- var(X).");
  AnalysisResult R = analyze("p(g)");
  EXPECT_EQ(successOf(R, "p/1"), "(atom)");
  R = analyze("q(g)");
  EXPECT_EQ(successOf(R, "q/1"), "(int)");
  R = analyze("r(g)");
  EXPECT_EQ(successOf(R, "r/1"), "(fails)");
  R = analyze("r(var)");
  EXPECT_EQ(successOf(R, "r/1"), "(var)");
}

TEST_F(AnalyzerTest, ListConstructionInBody) {
  compile("mk(X, [X, f(X)]).");
  AnalysisResult R = analyze("mk(g, var)");
  EXPECT_EQ(successOf(R, "mk/2"), "(_S0=g, [_S0,f(_S0)])");
}

TEST_F(AnalyzerTest, DepthLimitWidensDeepCalls) {
  compile("wrap(X, f(X)).\n"
          "deep(X, R) :- wrap(X, A), wrap(A, B), wrap(B, C), wrap(C, D), "
          "wrap(D, R).");
  AnalyzerOptions Options;
  Options.DepthLimit = 3;
  AnalysisResult R = analyze("deep(g, var)", Options);
  EXPECT_TRUE(R.Converged);
  // The success type of R is widened (contains g at the cut depth) rather
  // than a 5-deep f nest.
  std::string S = successOf(R, "deep/2");
  EXPECT_EQ(S.find("f(f(f(f(f"), std::string::npos) << S;
}

TEST_F(AnalyzerTest, HashAndLinearTablesAgree) {
  compile("app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).\n"
          "nrev([], []). nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).");
  AnalyzerOptions Lin;
  Lin.TableImpl = ExtensionTable::Impl::LinearList;
  AnalyzerOptions Hash;
  Hash.TableImpl = ExtensionTable::Impl::HashMap;
  AnalysisResult RL = analyze("nrev(glist, var)", Lin);
  AnalysisResult RH = analyze("nrev(glist, var)", Hash);
  ASSERT_EQ(RL.Items.size(), RH.Items.size());
  EXPECT_EQ(successOf(RL, "nrev/2"), successOf(RH, "nrev/2"));
  EXPECT_EQ(successOf(RL, "app/3"), successOf(RH, "app/3"));
}

TEST_F(AnalyzerTest, ExecCountsAccumulate) {
  compile("p(a).");
  AnalysisResult R = analyze("p(var)");
  EXPECT_GT(R.Counters.Instructions, 0u);
  EXPECT_GE(R.Iterations, 1);
  EXPECT_GT(R.Counters.ActivationRuns, 0u);

  // The naive driver needs a final quiescent restart to prove the
  // fixpoint (at least one change + one no-change iteration); the
  // worklist driver proves it by draining the queue and replays less.
  AnalysisResult RN = analyze("p(var)", seedAnalyzerOptions());
  EXPECT_GE(RN.Iterations, 2);
  EXPECT_GT(RN.Counters.ActivationRuns, R.Counters.ActivationRuns);
}

} // namespace
