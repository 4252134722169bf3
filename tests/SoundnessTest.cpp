//===- tests/SoundnessTest.cpp - Concrete-vs-abstract soundness -----------===//
//
// The analysis is a *success-pattern* analysis: for any concrete call
// within gamma(calling pattern), the abstraction of every concrete
// solution must be below (patternLeq) the analyzer's summarized success
// pattern. This parameterized property test runs goals concretely,
// abstracts each solution and checks containment.
//
//===----------------------------------------------------------------------===//

#include "analyzer/Session.h"
#include "wam/Machine.h"

#include <gtest/gtest.h>

using namespace awam;

namespace {

/// One soundness scenario: a program, a concrete goal whose arguments lie
/// in gamma(entry spec), and the entry spec used for analysis.
struct Scenario {
  const char *Name;
  const char *Program;
  const char *ConcreteGoal;
  const char *EntrySpec;
  int MaxSolutions;
};

/// gtest writes a value parameter into each listed test name, and for this
/// struct it writes its bytes, pointers included, which move with every
/// load of the binary. Print the scenario's name so the names stay the
/// same between builds.
void PrintTo(const Scenario &S, std::ostream *OS) { *OS << S.Name; }

constexpr const char *AppendSrc =
    "app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).";

const Scenario Scenarios[] = {
    {"append_forward", AppendSrc, "app([1,2], [3,4], R)",
     "app(glist, glist, var)", 5},
    {"append_backward", AppendSrc, "app(A, B, [1,2,3])",
     "app(var, var, glist)", 10},
    {"append_atoms", AppendSrc, "app([a], [b], R)",
     "app(atomlist, atomlist, var)", 5},
    {"nrev",
     "app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).\n"
     "nrev([], []). nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).",
     "nrev([1,2,3], R)", "nrev(glist, var)", 2},
    {"member",
     "member(X, [X|_]). member(X, [_|T]) :- member(X, T).",
     "member(X, [1,a,f(b)])", "member(var, glist)", 10},
    {"fact",
     "fact(0, 1).\n"
     "fact(N, F) :- N > 0, N1 is N - 1, fact(N1, F1), F is N * F1.",
     "fact(6, F)", "fact(int, var)", 2},
    {"deriv",
     "d(U + V, X, DU + DV) :- !, d(U, X, DU), d(V, X, DV).\n"
     "d(U * V, X, DU * V + U * DV) :- !, d(U, X, DU), d(V, X, DV).\n"
     "d(X, X, 1) :- !.\n"
     "d(_, _, 0).",
     "d(x * x + x, x, E)", "d(g, atom, var)", 2},
    {"partition",
     "partition([], _, [], []).\n"
     "partition([X|L], Y, [X|L1], L2) :- X =< Y, !, "
     "partition(L, Y, L1, L2).\n"
     "partition([X|L], Y, L1, [X|L2]) :- partition(L, Y, L1, L2).",
     "partition([3,1,4,1,5], 3, Lo, Hi)",
     "partition(glist, int, var, var)", 3},
    {"typecase",
     "classify(X, atom) :- atom(X).\n"
     "classify(X, int) :- integer(X).\n"
     "classify(f(_), str).",
     "classify(hello, K)", "classify(any, var)", 5},
    {"alias", "alias(X, X).", "alias(A, B)", "alias(var, var)", 2},
    // Deepened builtin transfers, pinned against the concrete machine:
    // every concrete solution must stay below the sharpened summaries.
    {"univ_decompose", "explode(T, L) :- T =.. L.",
     "explode(f(1, g(a)), L)", "explode(g, var)", 2},
    {"univ_construct", "implode(L, T) :- T =.. L.",
     "implode([f, 1, X], T)", "implode(any, var)", 2},
    {"functor_construct", "mk(N, A, T) :- functor(T, N, A).",
     "mk(foo, 2, T)", "mk(atom, int, var)", 2},
    {"arg_walk", "second(T, X) :- arg(2, T, X).",
     "second(f(a, b), X)", "second(g, var)", 2},
    {"guard_chain",
     "step(X, Y) :- X > 0, Y is X - 1.\n"
     "chain(R) :- step(2, A), step(A, R).",
     "chain(R)", "chain(var)", 2},
};

class SoundnessTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(SoundnessTest, ConcreteSolutionsContainedInSuccessPattern) {
  const Scenario &S = GetParam();
  SymbolTable Syms;
  TermArena Arena;
  Result<CompiledProgram> Program =
      compileSource(S.Program, Syms, Arena);
  ASSERT_TRUE(Program) << Program.diag().str();

  // Analyze.
  AnalysisSession A(*Program);
  Result<AnalysisResult> R = A.analyze(S.EntrySpec);
  ASSERT_TRUE(R) << R.diag().str();
  Result<std::pair<std::string, Pattern>> Spec =
      parseEntrySpec(S.EntrySpec);
  ASSERT_TRUE(Spec);
  // Entry patterns are canonical by construction; find by equality.
  const Pattern *Success = nullptr;
  for (const AnalysisResult::Item &I : R->Items)
    if (I.Call == Spec->second && I.Success)
      Success = &*I.Success;
  ASSERT_NE(Success, nullptr)
      << "analysis reported failure for " << S.EntrySpec;

  // Run concretely and abstract each solution.
  Machine M(*Program);
  Parser GoalParser(S.ConcreteGoal, Syms, Arena);
  Result<const Term *> Goal = GoalParser.readTerm();
  ASSERT_TRUE(Goal);
  int NumVars = GoalParser.lastTermNumVars();
  std::vector<Solution> Solutions;
  TermArena SolutionArena;
  RunStatus Status =
      M.solve(*Goal, NumVars, SolutionArena, Solutions, S.MaxSolutions);
  ASSERT_EQ(Status, RunStatus::Success) << M.errorMessage();

  for (const Solution &Sol : Solutions) {
    // Rebuild the goal arguments with this solution's bindings
    // substituted, then abstract them.
    Store St;
    std::unordered_map<int, int64_t> VarAddrs;
    std::vector<Cell> Args;
    for (const Term *Arg : (*Goal)->args())
      Args.push_back(Cell::ref(St.buildTerm(Arg, VarAddrs)));
    // One shared map: aliased solution variables (same var id) must
    // rebuild as the same cell.
    std::unordered_map<int, int64_t> Fresh;
    for (auto [VarId, Addr] : VarAddrs) {
      if (!Sol.Bindings[VarId])
        continue;
      int64_t BoundAddr = St.buildTerm(Sol.Bindings[VarId], Fresh);
      St.bind(Addr, Cell::ref(BoundAddr));
    }
    Pattern Abstracted = canonicalize(St, Args);
    EXPECT_TRUE(patternLeq(Abstracted, *Success))
        << S.Name << ": solution " << Abstracted.str(Syms)
        << " not below success " << Success->str(Syms);
  }
}

std::string scenarioName(const ::testing::TestParamInfo<Scenario> &Info) {
  return Info.param.Name;
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, SoundnessTest,
                         ::testing::ValuesIn(Scenarios), scenarioName);

} // namespace
