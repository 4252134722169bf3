//===- tests/SpecializerTest.cpp - Differential concrete-WAM gate ---------===//
//
// The specializer's contract is semantic transparency: for every call
// conforming to the analyzed entry, the specialized module computes
// byte-identical solutions, in the same order, with the same failure /
// error behavior as the original — it may only get there in fewer
// dynamic instructions. These tests enforce that contract on the
// concrete machine:
//
//   * all 11 Table 1 benchmarks, original vs specialized, multi-solution
//     solve of the analyzed entry goal plus write/1 output comparison;
//     the specialized module never runs more dynamic instructions and
//     runs strictly fewer on at least 6 of the 11;
//   * targeted programs exercising the individual rewrites (fused
//     get_list/get_structure blocks with mid-block backtracking, clause
//     pruning, switch shortcuts, det choice-point elimination);
//   * a 20-seed RandomProgramGen sweep under a small step budget.
//
//===----------------------------------------------------------------------===//

#include "compiler/Specializer.h"

#include "analyzer/Session.h"
#include "analyzer/Specialize.h"
#include "programs/Benchmarks.h"
#include "term/TermWriter.h"
#include "wam/Machine.h"

#include "RandomProgramGen.h"

#include <gtest/gtest.h>

using namespace awam;

namespace {

/// Everything observable about one solve() run.
struct RunOutcome {
  RunStatus Status = RunStatus::Error;
  std::vector<std::string> Solutions; ///< rendered bindings per solution
  std::string Output;                 ///< write/1 & friends
  uint64_t Instructions = 0;
};

class SpecializerTest : public ::testing::Test {
protected:
  void compile(std::string_view Source) {
    Result<CompiledProgram> P = compileSource(Source, Syms, Arena);
    ASSERT_TRUE(P) << P.diag().str();
    Program = std::make_unique<CompiledProgram>(P.take());
  }

  /// Analyzes \p EntrySpec under the modes domain and runs the
  /// specializer with the resulting facts. Analysis failures (e.g. a
  /// budget hit on a pathological random program) degrade to empty facts:
  /// the specializer must behave as the identity transform then.
  void specialize(std::string_view EntrySpec) {
    AnalyzerOptions Options;
    AnalysisSession A(*Program, Options);
    Result<AnalysisResult> R = A.analyze(EntrySpec);
    AnalysisResult Facts;
    if (R)
      Facts = std::move(*R);
    Specialized = std::make_unique<CompiledProgram>(specializeProgram(
        *Program, buildSpecializationFacts(Facts, *Program), Report));
  }

  const Term *goal(std::string_view Text, int *NumVars) {
    Parser P(Text, Syms, Arena);
    Result<const Term *> T = P.readTerm();
    EXPECT_TRUE(T) << T.diag().str();
    *NumVars = P.lastTermNumVars();
    return *T;
  }

  RunOutcome run(const CompiledProgram &P, std::string_view GoalText,
                 int MaxSolutions, uint64_t MaxSteps) {
    int NumVars = 0;
    const Term *G = goal(GoalText, &NumVars);
    MachineOptions MO;
    MO.MaxSteps = MaxSteps;
    Machine M(P, MO);
    std::vector<Solution> Sols;
    TermArena SolArena;
    RunOutcome Out;
    Out.Status = M.solve(G, NumVars, SolArena, Sols, MaxSolutions);
    for (const Solution &S : Sols) {
      std::string Line;
      for (int I = 0; I != NumVars; ++I) {
        if (!S.Bindings[I])
          continue;
        if (!Line.empty())
          Line += ", ";
        Line += writeTerm(S.Bindings[I], Syms);
      }
      Out.Solutions.push_back(Line);
    }
    Out.Output = M.output();
    Out.Instructions = M.stepsExecuted();
    return Out;
  }

  /// Runs \p GoalText on the original and the specialized module and
  /// asserts identical observable behavior. Returns the two outcomes for
  /// extra assertions (instruction counts). When the original run hits
  /// the step budget the comparison is skipped: the specialized module
  /// may legitimately finish inside a budget the original exceeds.
  std::pair<RunOutcome, RunOutcome>
  expectIdentical(std::string_view GoalText, int MaxSolutions = 100,
                  uint64_t MaxSteps = 500'000'000) {
    RunOutcome O = run(*Program, GoalText, MaxSolutions, MaxSteps);
    RunOutcome S = run(*Specialized, GoalText, MaxSolutions, MaxSteps);
    if (O.Status == RunStatus::Error)
      return {O, S};
    EXPECT_EQ(O.Status, S.Status) << "goal " << GoalText;
    EXPECT_EQ(O.Solutions, S.Solutions) << "goal " << GoalText;
    EXPECT_EQ(O.Output, S.Output) << "goal " << GoalText;
    return {O, S};
  }

  SymbolTable Syms;
  TermArena Arena;
  std::unique_ptr<CompiledProgram> Program;
  std::unique_ptr<CompiledProgram> Specialized;
  SpecializationReport Report;
};

TEST_F(SpecializerTest, Table1SuiteIdenticalAnswers) {
  int Checked = 0, Reduced = 0;
  for (const BenchmarkProgram &B : benchmarkPrograms()) {
    SCOPED_TRACE(std::string(B.Name));
    Syms = SymbolTable();
    Program.reset();
    Specialized.reset();
    Report = SpecializationReport();
    compile(B.Source);
    specialize(B.EntrySpec);
    // main/0 is the analyzed entry for the whole suite; ask for several
    // solutions so redo/backtrack paths of nondeterministic mains (query,
    // zebra) are exercised too.
    auto [O, S] = expectIdentical("main", /*MaxSolutions=*/5);
    ASSERT_NE(O.Status, RunStatus::Error);
    EXPECT_EQ(O.Status, RunStatus::Success);
    EXPECT_LE(S.Instructions, O.Instructions);
    Reduced += S.Instructions < O.Instructions;
    ++Checked;
  }
  EXPECT_EQ(Checked, 11);
  // The rewrites must pay: strictly fewer dynamic instructions on at
  // least 6 of the 11 (a program whose hot predicates resist every
  // rewrite legitimately ties).
  EXPECT_GE(Reduced, 6);
}

TEST_F(SpecializerTest, MultiSolutionOrderPreserved) {
  compile("p(X) :- q(X).\n"
          "q(a). q(b). q(c).\n");
  specialize("p(var)");
  auto [O, S] = expectIdentical("p(X)");
  EXPECT_EQ(O.Solutions, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(S.Solutions, O.Solutions);
}

TEST_F(SpecializerTest, BacktrackOutOfFusedBlock) {
  // The first clause's fused get_list block matches its first element and
  // fails mid-block; the machine must backtrack cleanly into the second
  // clause on both modules.
  compile("p([1,2|T], T).\n"
          "p([1,3|T], T).\n");
  specialize("p(nv, var)");
  EXPECT_GT(Report.FusedBlocks, 0u);
  auto [O, S] = expectIdentical("p([1,3,9], R)");
  EXPECT_EQ(O.Solutions, (std::vector<std::string>{"[9]"}));
  EXPECT_EQ(S.Solutions, O.Solutions);
  expectIdentical("p([2,2], R)"); // first element fails: both clauses die
  expectIdentical("p([1,2,5,6], R)");
}

TEST_F(SpecializerTest, PrunedClausesStayInvisible) {
  // Under an integer-only calling pattern the atom clauses can never
  // match; pruning them must not change any conforming call.
  compile("t(1, one).\n"
          "t(2, two).\n"
          "t(a, letter).\n"
          "t(b, letter).\n"
          "step(X, Y) :- t(X, Y).\n");
  specialize("step(int, var)");
  auto [O, S] = expectIdentical("step(2, R)");
  EXPECT_EQ(O.Solutions, (std::vector<std::string>{"two"}));
  EXPECT_EQ(S.Solutions, O.Solutions);
  expectIdentical("step(7, R)"); // conforming call that fails
}

TEST_F(SpecializerTest, DeterministicPredicateSameAnswers) {
  // Deterministic list recursion: det facts license choice-point work,
  // and the answers must survive it, including on the redo path (the
  // caller asks for a second solution that does not exist).
  compile("app([], L, L).\n"
          "app([H|T], L, [H|R]) :- app(T, L, R).\n"
          "main(R) :- app([1,2,3], [4,5], R).\n");
  specialize("main(var)");
  auto [O, S] = expectIdentical("main(R)", /*MaxSolutions=*/3);
  EXPECT_EQ(O.Solutions, (std::vector<std::string>{"[1,2,3,4,5]"}));
  EXPECT_EQ(S.Solutions, O.Solutions);
}

TEST_F(SpecializerTest, EmptyFactsAreIdentity) {
  // With no analysis facts at all the specializer must be a semantic
  // no-op (it may still rebuild indexing identically).
  compile("r(a). r(b).\n"
          "s(X) :- r(X), r(Y), X = Y.\n");
  Specialized = std::make_unique<CompiledProgram>(
      specializeProgram(*Program, SpecializationFacts{}, Report));
  expectIdentical("s(X)");
  expectIdentical("s(b)");
  expectIdentical("s(q)");
}

TEST_F(SpecializerTest, RandomProgramSweep) {
  // 20 seeded random programs: analyze p0 under an all-any entry (every
  // conforming goal is then licensed), specialize, and differential-test
  // a fresh-variable goal under a small step budget.
  for (unsigned Seed = 0; Seed != 20; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    Syms = SymbolTable();
    Program.reset();
    Specialized.reset();
    Report = SpecializationReport();
    std::string Source = testgen::generateProgram(Seed);
    compile(Source);

    // Recover p0's arity from the compiled module.
    int Arity = -1;
    Symbol P0 = Syms.lookup("p0");
    ASSERT_NE(P0, ~0u) << Source;
    for (int A = 0; A != 8 && Arity < 0; ++A)
      if (Program->Module->findPredicate(P0, A) >= 0)
        Arity = A;
    ASSERT_GE(Arity, 0) << Source;

    std::string Spec = "p0/" + std::to_string(Arity);
    specialize(Spec);

    std::string Goal = "p0";
    if (Arity) {
      Goal += "(";
      for (int A = 0; A != Arity; ++A)
        Goal += (A ? ", W" : "W") + std::to_string(A);
      Goal += ")";
    }
    auto [O, S] = expectIdentical(Goal, /*MaxSolutions=*/8,
                                  /*MaxSteps=*/200'000);
    if (O.Status != RunStatus::Error) {
      EXPECT_LE(S.Instructions, O.Instructions) << Source;
    }
  }
}

} // namespace
