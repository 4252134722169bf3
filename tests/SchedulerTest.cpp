//===- tests/SchedulerTest.cpp - Worklist scheduler tests -----------------===//
//
// The dependency-driven worklist driver must be a pure scheduling
// optimization: on every benchmark it computes the byte-identical
// extension-table fixpoint of the naive restart loop while replaying
// fewer activations. This suite pins that equivalence (on the benchmarks
// and on a seeded random-program sweep), the replay savings, the
// iteration- and step-budget contracts of both drivers, and the
// scheduler's bookkeeping invariants.
//
//===----------------------------------------------------------------------===//

#include "analyzer/Session.h"
#include "baseline/MetaAnalyzer.h"
#include "programs/Benchmarks.h"
#include "RandomProgramGen.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace awam;

namespace {

/// "pred call -> success" lines in table (creation) order — NOT sorted,
/// so equality also pins that both drivers create entries in the same
/// order and store identical patterns.
std::vector<std::string> tableLines(const AnalysisResult &R,
                                    const SymbolTable &Syms) {
  std::vector<std::string> Lines;
  for (const AnalysisResult::Item &I : R.Items)
    Lines.push_back(I.PredLabel + " " + I.Call.str(Syms) + " -> " +
                    (I.Success ? I.Success->str(Syms) : "(fails)"));
  return Lines;
}

class SchedulerTest : public ::testing::Test {
protected:
  void compile(std::string_view Source) {
    Result<CompiledProgram> P = compileSource(Source, Syms, Arena);
    ASSERT_TRUE(P) << P.diag().str();
    Program = std::make_unique<CompiledProgram>(P.take());
  }

  AnalyzerOptions driverOptions(DriverKind D) {
    AnalyzerOptions O;
    O.Driver = D;
    return O;
  }

  SymbolTable Syms;
  TermArena Arena;
  std::unique_ptr<CompiledProgram> Program;
};

TEST_F(SchedulerTest, GoldenWorklistMatchesNaiveOnAllBenchmarks) {
  // Tentpole acceptance: identical fixpoint on every Table 1 program,
  // with strictly fewer activation replays on most of them.
  int Strict = 0, Checked = 0;
  for (const BenchmarkProgram &B : benchmarkPrograms()) {
    SymbolTable S;
    TermArena A;
    Result<CompiledProgram> P = compileSource(B.Source, S, A);
    ASSERT_TRUE(P) << B.Name << ": " << P.diag().str();

    AnalysisSession Naive(*P, [] {
      AnalyzerOptions O;
      O.Driver = DriverKind::Naive;
      return O;
    }());
    Result<AnalysisResult> RN = Naive.analyze(B.EntrySpec);
    ASSERT_TRUE(RN) << B.Name << ": " << RN.diag().str();

    AnalysisSession Worklist(*P); // defaults: Driver = Worklist
    Result<AnalysisResult> RW = Worklist.analyze(B.EntrySpec);
    ASSERT_TRUE(RW) << B.Name << ": " << RW.diag().str();

    EXPECT_TRUE(RN->Converged) << B.Name;
    EXPECT_TRUE(RW->Converged) << B.Name;
    EXPECT_EQ(tableLines(*RN, S), tableLines(*RW, S)) << B.Name;

    // Never more replays than naive; count the strict wins.
    EXPECT_LE(RW->Counters.ActivationRuns, RN->Counters.ActivationRuns)
        << B.Name;
    if (RW->Counters.ActivationRuns < RN->Counters.ActivationRuns)
      ++Strict;
    ++Checked;
  }
  EXPECT_EQ(Checked, 11);
  EXPECT_GE(Strict, 6) << "worklist should beat naive replay counts on "
                          "most benchmarks";
}

TEST_F(SchedulerTest, WorklistMatchesNaiveOnRandomPrograms) {
  // 30 seeded random programs, one all-any entry per generated clause
  // head (so a predicate is checked once per clause, each time from fresh
  // sessions): the worklist table equals the naive one in creation order,
  // and the worklist never replays more activations.
  int Entries = 0;
  for (unsigned Seed = 0; Seed != 30; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    SymbolTable S;
    TermArena A;
    Result<ParsedProgram> Parsed =
        parseProgram(testgen::generateProgram(Seed), S, A);
    ASSERT_TRUE(Parsed) << Parsed.diag().str();
    Result<CompiledProgram> P = compileProgram(*Parsed, S);
    ASSERT_TRUE(P) << P.diag().str();
    for (const ParsedClause &C : Parsed->Clauses) {
      std::string Name(S.name(C.Head->functor()));
      if (Name.starts_with("$"))
        continue; // desugaring artifacts are analyzed transitively
      int Arity = C.Head->isStruct() ? C.Head->arity() : 0;
      Pattern Entry =
          makeEntryPattern(std::vector<PatKind>(Arity, PatKind::AnyP));

      AnalysisSession Naive(*P, driverOptions(DriverKind::Naive));
      Result<AnalysisResult> RN = Naive.analyze(Name, Entry);
      ASSERT_TRUE(RN) << Name << ": " << RN.diag().str();
      AnalysisSession Worklist(*P, driverOptions(DriverKind::Worklist));
      Result<AnalysisResult> RW = Worklist.analyze(Name, Entry);
      ASSERT_TRUE(RW) << Name << ": " << RW.diag().str();

      EXPECT_EQ(tableLines(*RN, S), tableLines(*RW, S)) << Name;
      EXPECT_LE(RW->Counters.ActivationRuns, RN->Counters.ActivationRuns)
          << Name;
      ++Entries;
    }
  }
  EXPECT_EQ(Entries, 222);
}

TEST_F(SchedulerTest, WorklistWithoutInterningIsRejected) {
  // The worklist driver runs only as a store query, and the store is
  // defined over interned patterns: without interning the session refuses
  // it up front, creating no store, while the naive driver still runs.
  compile("app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).\n"
          "nrev([], []). nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).");
  AnalyzerOptions Work = seedAnalyzerOptions();
  Work.Driver = DriverKind::Worklist;
  AnalysisSession AW(*Program, Work);
  Result<AnalysisResult> RW = AW.analyze("nrev(glist, var)");
  ASSERT_FALSE(RW);
  EXPECT_NE(RW.diag().str().find("requires the interned fast path"),
            std::string::npos)
      << RW.diag().str();
  EXPECT_EQ(AW.store(), nullptr);

  AnalysisSession AN(*Program, seedAnalyzerOptions());
  Result<AnalysisResult> RN = AN.analyze("nrev(glist, var)");
  ASSERT_TRUE(RN) << RN.diag().str();
  EXPECT_TRUE(RN->Converged);
}

TEST_F(SchedulerTest, SchedulerStatsExposedThroughSession) {
  // The scheduler's statistics reach the caller through the result:
  // sweeps as Iterations, queue runs and recorded edges as counters.
  compile("even(0). even(s(N)) :- odd(N).\n"
          "odd(s(N)) :- even(N).");
  AnalysisSession A(*Program);
  Result<AnalysisResult> R = A.analyze("even(var)");
  ASSERT_TRUE(R) << R.diag().str();
  EXPECT_GE(R->Iterations, 1);
  EXPECT_GT(R->Counters.SchedulerRuns, 0u);
  // Mutual recursion records at least the even<->odd read edges.
  EXPECT_GT(R->Counters.DepEdges, 0u);
  // Activations = scheduler-initiated runs + inline call-site explores.
  EXPECT_GE(R->Counters.ActivationRuns, R->Counters.SchedulerRuns);

  // The naive driver runs no scheduler: its counters stay zero.
  AnalysisSession N(*Program, driverOptions(DriverKind::Naive));
  Result<AnalysisResult> RN = N.analyze("even(var)");
  ASSERT_TRUE(RN) << RN.diag().str();
  EXPECT_EQ(RN->Counters.SchedulerRuns, 0u);
  EXPECT_EQ(RN->Counters.DepEdges, 0u);
}

TEST_F(SchedulerTest, SessionIsReusableAcrossAnalyses) {
  compile("p(a). q(X) :- p(X).");
  AnalysisSession A(*Program);
  Result<AnalysisResult> R1 = A.analyze("q(var)");
  ASSERT_TRUE(R1) << R1.diag().str();
  Result<AnalysisResult> R2 = A.analyze("q(var)");
  ASSERT_TRUE(R2) << R2.diag().str();
  EXPECT_EQ(tableLines(*R1, Syms), tableLines(*R2, Syms));
  EXPECT_EQ(R1->Counters.ActivationRuns, R2->Counters.ActivationRuns);
}

TEST_F(SchedulerTest, BaselineMatchesCompiledWorklist) {
  // The MetaAnalyzer baseline must give the same table as the compiled
  // worklist session.
  std::string_view Source =
      "app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).";
  Result<ParsedProgram> Parsed = parseProgram(Source, Syms, Arena);
  ASSERT_TRUE(Parsed) << Parsed.diag().str();
  Result<CompiledProgram> Compiled = compileProgram(*Parsed, Syms);
  ASSERT_TRUE(Compiled) << Compiled.diag().str();

  AnalysisSession C(*Compiled);
  Result<AnalysisResult> RC = C.analyze("app(glist, glist, var)");
  ASSERT_TRUE(RC) << RC.diag().str();

  MetaAnalyzer B(*Parsed, Syms);
  Result<AnalysisResult> RB = B.analyze("app(glist, glist, var)");
  ASSERT_TRUE(RB) << RB.diag().str();
  EXPECT_GT(RB->Counters.ActivationRuns, 0u);

  auto sorted = [&](const AnalysisResult &R) {
    std::vector<std::string> L = tableLines(R, Syms);
    std::sort(L.begin(), L.end());
    return L;
  };
  EXPECT_EQ(sorted(*RC), sorted(*RB));
}

/// A program whose success summary deepens one s/1 layer per pass, so
/// the fixpoint needs several iterations/sweeps — ideal for driving the
/// MaxIterations budget into the ground.
constexpr std::string_view kSlowConvergence =
    "count(zero). count(s(N)) :- count(N).";

class BudgetHitTest : public SchedulerTest,
                      public ::testing::WithParamInterface<DriverKind> {};

TEST_P(BudgetHitTest, MaxIterationsBudgetHitIsReportedAndSound) {
  compile(kSlowConvergence);

  // Reference fixpoint with the default budget.
  AnalyzerOptions Full = driverOptions(GetParam());
  AnalysisSession AFull(*Program, Full);
  Result<AnalysisResult> RFull = AFull.analyze("count(var)");
  ASSERT_TRUE(RFull) << RFull.diag().str();
  ASSERT_TRUE(RFull->Converged);
  ASSERT_GT(RFull->Iterations, 1);

  // Same analysis with a one-iteration budget: not an error, but an
  // explicitly unconverged result with populated counters.
  AnalyzerOptions Tight = driverOptions(GetParam());
  Tight.MaxIterations = 1;
  AnalysisSession ATight(*Program, Tight);
  Result<AnalysisResult> RTight = ATight.analyze("count(var)");
  ASSERT_TRUE(RTight) << RTight.diag().str();
  EXPECT_FALSE(RTight->Converged);
  EXPECT_EQ(RTight->Iterations, 1);
  EXPECT_GT(RTight->Counters.Instructions, 0u);
  EXPECT_GT(RTight->Counters.ActivationRuns, 0u);
  EXPECT_GT(RTight->Counters.ETProbes, 0u);
  std::string Report = formatAnalysis(*RTight, Syms);
  EXPECT_NE(Report.find("(budget hit)"), std::string::npos) << Report;

  // The partial table is a sound under-iteration of the fixpoint: every
  // partial success must be <= the converged success for the same call.
  for (const AnalysisResult::Item &Partial : RTight->Items) {
    if (!Partial.Success)
      continue; // "no success yet" is trivially below everything
    bool FoundMatch = false;
    for (const AnalysisResult::Item &Final : RFull->Items) {
      if (Final.PredLabel != Partial.PredLabel ||
          !(Final.Call == Partial.Call))
        continue;
      FoundMatch = true;
      ASSERT_TRUE(Final.Success.has_value());
      Pattern Lub = lubPatterns(*Partial.Success, *Final.Success,
                                kDefaultDepthLimit);
      EXPECT_TRUE(Lub == *Final.Success)
          << Partial.PredLabel << ": partial " << Partial.Success->str(Syms)
          << " not below final " << Final.Success->str(Syms);
    }
    EXPECT_TRUE(FoundMatch) << Partial.PredLabel;
  }
}

TEST_P(BudgetHitTest, StepBudgetExhaustionIsAnError) {
  // Unlike the iteration budget, running out of abstract instructions
  // mid-activation leaves no sound partial table: it is an error.
  compile(kSlowConvergence);
  AnalyzerOptions O = driverOptions(GetParam());
  O.MaxSteps = 10;
  AnalysisSession A(*Program, O);
  Result<AnalysisResult> R = A.analyze("count(var)");
  ASSERT_FALSE(R);
  EXPECT_NE(R.diag().str().find("abstract instruction budget exceeded"),
            std::string::npos)
      << R.diag().str();
}

TEST_P(BudgetHitTest, ZeroIterationBudgetYieldsEmptyUnconvergedResult) {
  compile(kSlowConvergence);
  AnalyzerOptions O = driverOptions(GetParam());
  O.MaxIterations = 0;
  AnalysisSession A(*Program, O);
  Result<AnalysisResult> R = A.analyze("count(var)");
  ASSERT_TRUE(R) << R.diag().str();
  EXPECT_FALSE(R->Converged);
  EXPECT_EQ(R->Iterations, 0);
}

std::string driverName(const ::testing::TestParamInfo<DriverKind> &Info) {
  return Info.param == DriverKind::Naive ? "Naive" : "Worklist";
}

INSTANTIATE_TEST_SUITE_P(BothDrivers, BudgetHitTest,
                         ::testing::Values(DriverKind::Naive,
                                           DriverKind::Worklist),
                         driverName);

} // namespace
