//===- tests/MachineStressTest.cpp - WAM stress and edge cases ------------===//
//
// Generated programs and adversarial shapes: wide predicates, deep
// recursion with live choice points, trail-restore invariants, machine
// reuse, resource limits, statistics, and arithmetic edge cases.
//
//===----------------------------------------------------------------------===//

#include "SanitizerBuild.h"

#include "analyzer/Session.h"
#include "term/TermWriter.h"
#include "wam/Machine.h"

#include <gtest/gtest.h>

#include <chrono>

using namespace awam;

namespace {

class MachineStressTest : public ::testing::Test {
protected:
  void compile(std::string_view Source, MachineOptions Options = {}) {
    Result<CompiledProgram> P = compileSource(Source, Syms, Arena);
    ASSERT_TRUE(P) << P.diag().str();
    Program = std::make_unique<CompiledProgram>(P.take());
    M = std::make_unique<Machine>(*Program, Options);
  }

  RunStatus run(std::string_view GoalText,
                std::vector<std::string> *Out = nullptr, int Max = 1) {
    Parser GP(GoalText, Syms, Arena);
    Result<const Term *> G = GP.readTerm();
    EXPECT_TRUE(G) << G.diag().str();
    std::vector<Solution> Sols;
    TermArena SolArena;
    RunStatus Status =
        M->solve(*G, GP.lastTermNumVars(), SolArena, Sols, Max);
    if (Out)
      for (const Solution &S : Sols) {
        std::string Line;
        for (const Term *B : S.Bindings)
          if (B)
            Line += (Line.empty() ? "" : ", ") + writeTerm(B, Syms);
        Out->push_back(Line);
      }
    return Status;
  }

  SymbolTable Syms;
  TermArena Arena;
  std::unique_ptr<CompiledProgram> Program;
  std::unique_ptr<Machine> M;
};

TEST_F(MachineStressTest, WidePredicateManyConstants) {
  // 200 facts with distinct first-argument constants: indexing must pick
  // exactly the right clause, and the var bucket must enumerate all.
  std::string Source;
  for (int I = 0; I != 200; ++I)
    Source += "w(k" + std::to_string(I) + ", " + std::to_string(I) + ").\n";
  compile(Source);
  std::vector<std::string> Out;
  EXPECT_EQ(run("w(k137, V)", &Out), RunStatus::Success);
  EXPECT_EQ(Out, (std::vector<std::string>{"137"}));
  Out.clear();
  EXPECT_EQ(run("w(K, V)", &Out, 500), RunStatus::Success);
  EXPECT_EQ(Out.size(), 200u);
  EXPECT_EQ(run("w(nope, _)"), RunStatus::Failure);
}

TEST_F(MachineStressTest, WideArityPredicate) {
  // A predicate with 60 arguments exercises the register file.
  std::string Head = "wide(";
  std::string Goal = "wide(";
  for (int I = 0; I != 60; ++I) {
    Head += (I ? ", X" : "X") + std::to_string(I);
    Goal += (I ? ", " : "") + std::to_string(I);
  }
  Head += ")";
  Goal += ")";
  compile(Head + " :- X59 > X0.\n");
  EXPECT_EQ(run(Goal), RunStatus::Success);
}

TEST_F(MachineStressTest, DeepRecursionWithChoicePoints) {
  // Non-tail recursion with an open alternative at every level.
  compile("d(0). d(N) :- N > 0, N1 is N - 1, d(N1).\n"
          "d(N) :- N > 1000000.");
  EXPECT_EQ(run("d(20000)"), RunStatus::Success);
  MachineStats S = M->stats();
  EXPECT_GT(S.ChoicePoints, 10000u);
  EXPECT_GT(S.MaxStackSlots, 10000u);
}

TEST_F(MachineStressTest, TrailRestoreAcrossManyFailures) {
  // Each alternative binds then fails; bindings must be fully undone so
  // the final alternative sees unbound variables.
  compile("t(X, Y) :- member(X, [1,2,3,4,5]), X > 4, Y = found(X).\n"
          "member(X, [X|_]). member(X, [_|T]) :- member(X, T).");
  std::vector<std::string> Out;
  EXPECT_EQ(run("t(A, B)", &Out), RunStatus::Success);
  EXPECT_EQ(Out, (std::vector<std::string>{"5, found(5)"}));
}

TEST_F(MachineStressTest, MachineReusableAcrossSolves) {
  compile("p(1). p(2).");
  for (int I = 0; I != 50; ++I) {
    std::vector<std::string> Out;
    EXPECT_EQ(run("p(X)", &Out, 10), RunStatus::Success);
    EXPECT_EQ(Out.size(), 2u);
  }
}

TEST_F(MachineStressTest, StepBudgetTriggersError) {
  MachineOptions Options;
  Options.MaxSteps = 1000;
  compile("loop :- loop.", Options);
  EXPECT_EQ(run("loop"), RunStatus::Error);
  EXPECT_NE(M->errorMessage().find("budget"), std::string::npos);
}

TEST_F(MachineStressTest, HeapBudgetTriggersError) {
  MachineOptions Options;
  Options.MaxHeapCells = 4096;
  compile("grow(L) :- grow([x|L]).", Options);
  EXPECT_EQ(run("grow([])"), RunStatus::Error);
}

TEST_F(MachineStressTest, ArithmeticEdgeCases) {
  compile(
      "m(X) :- X is -7 mod 3.\n"          // mod result is non-negative
      "r(X) :- X is -7 rem 3.\n"          // rem keeps the dividend's sign
      "d0 :- _ is 1 // 0.\n"              // division by zero is an error
      "shift(X) :- X is 1 << 10.\n"
      "bits(X) :- X is 12 /\\ 10, X =:= 8.\n"
      "neg(X) :- X is - (5), X =:= -5.\n"
      "mm(X) :- X is min(3, max(1, 2)).");
  std::vector<std::string> Out;
  EXPECT_EQ(run("m(X)", &Out), RunStatus::Success);
  EXPECT_EQ(Out, (std::vector<std::string>{"2"}));
  Out.clear();
  EXPECT_EQ(run("r(X)", &Out), RunStatus::Success);
  EXPECT_EQ(Out, (std::vector<std::string>{"-1"}));
  EXPECT_EQ(run("d0"), RunStatus::Error);
  compile("shift(X) :- X is 1 << 10.");
  Out.clear();
  EXPECT_EQ(run("shift(X)", &Out), RunStatus::Success);
  EXPECT_EQ(Out, (std::vector<std::string>{"1024"}));
}

TEST_F(MachineStressTest, StatsReportEnvironmentsAndHeap) {
  compile("app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).\n"
          "main :- app([1,2,3,4,5,6,7,8], [9], _).");
  EXPECT_EQ(run("main"), RunStatus::Success);
  MachineStats S = M->stats();
  EXPECT_GT(S.Instructions, 20u);
  EXPECT_GT(S.MaxHeapCells, 20u);
}

TEST_F(MachineStressTest, DeepStructureUnification) {
  // 200-deep nested structure built in the goal and matched by the head.
  std::string Deep = "x";
  for (int I = 0; I != 200; ++I)
    Deep = "f(" + Deep + ")";
  compile("deep(" + Deep + ").");
  EXPECT_EQ(run("deep(" + Deep + ")"), RunStatus::Success);
  EXPECT_EQ(run("deep(g(x))"), RunStatus::Failure);
}

TEST_F(MachineStressTest, LongListUnification) {
  // 5000-element lists unify without machine-stack recursion issues.
  std::string Long = "mk(0, []) :- !.\n"
                     "mk(N, [N|T]) :- N1 is N - 1, mk(N1, T).\n"
                     "eq(X, X).\n"
                     "main :- mk(5000, A), mk(5000, B), eq(A, B).";
  compile(Long);
  EXPECT_EQ(run("main"), RunStatus::Success);
}

TEST_F(MachineStressTest, TwoLongListsUnifyInLinearTime) {
  // Unification checks each compound pair against the pairs already
  // scheduled in O(1) expected time, so two 200k-element lists unify in
  // under 2 s (a linear scan of the scheduled pairs took about 32 s). The
  // bound is asserted only in builds without sanitizers.
  compile("mk(0, []) :- !.\n"
          "mk(N, [N|T]) :- N1 is N - 1, mk(N1, T).\n"
          "main :- mk(200000, A), mk(200000, B), A = B.");
  auto T0 = std::chrono::steady_clock::now();
  EXPECT_EQ(run("main"), RunStatus::Success);
  double Seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - T0)
                       .count();
  if (!testenv::kSanitized) {
    EXPECT_LT(Seconds, 2.0);
  }
}

TEST_F(MachineStressTest, CyclicTermsUnifyCoinductively) {
  // No occurs check: X = f(X) builds a rational term, and unifying two
  // such terms assumes a pair already being unified is equal.
  compile("s :- X = f(X), Y = f(Y), X = Y.\n"
          "l :- L = [a|L], M = [a|M], L = M.\n"
          "d :- X = f(X, a), Y = f(Y, b), X = Y.\n"
          "n :- L = [a|L], M = [a, a|M], L = M.\n");
  EXPECT_EQ(run("s"), RunStatus::Success);
  EXPECT_EQ(run("l"), RunStatus::Success);
  EXPECT_EQ(run("d"), RunStatus::Failure);
  EXPECT_EQ(run("n"), RunStatus::Success);
}

TEST_F(MachineStressTest, BacktrackingRestoresArgumentRegisters) {
  // The bug this guards against: choice points must save/restore argument
  // registers (arity recorded in the Try instruction).
  compile("pick(X, Y) :- alt(X), use(X, Y).\n"
          "alt(1). alt(2). alt(3).\n"
          "use(3, ok).");
  std::vector<std::string> Out;
  EXPECT_EQ(run("pick(X, Y)", &Out), RunStatus::Success);
  EXPECT_EQ(Out, (std::vector<std::string>{"3, ok"}));
}

TEST_F(MachineStressTest, ReachabilityReportFindsDeadCode) {
  compile("main :- used(1).\n"
          "used(_).\n"
          "never(_) :- used(2).\n");
  AnalysisSession A(*Program);
  Result<AnalysisResult> R = A.analyze("main");
  ASSERT_TRUE(R) << R.diag().str();
  std::string Report = formatReachability(*R, *Program);
  EXPECT_NE(Report.find("unreachable: never/1"), std::string::npos)
      << Report;
  EXPECT_EQ(Report.find("unreachable: used/1"), std::string::npos)
      << Report;
}

TEST_F(MachineStressTest, ReachabilityReportNeverSucceeds) {
  compile("main :- broken(_).\n"
          "broken(X) :- integer(X), atom(X).");
  AnalysisSession A(*Program);
  Result<AnalysisResult> R = A.analyze("main");
  ASSERT_TRUE(R) << R.diag().str();
  std::string Report = formatReachability(*R, *Program);
  EXPECT_NE(Report.find("never succeeds: broken/1"), std::string::npos)
      << Report;
}

} // namespace
