//===- tests/BenchmarkProgramsTest.cpp - Benchmark suite validation -------===//
//
// Every Table 1 benchmark must (a) parse and compile, (b) run to success
// on the concrete WAM, (c) be analyzable to a fixpoint by the compiled
// abstract WAM, and (d) get the *same* analysis from the baseline
// meta-interpreter. This is the substrate for the bench harness.
//
//===----------------------------------------------------------------------===//

#include "analyzer/Session.h"
#include "baseline/MetaAnalyzer.h"
#include "programs/Benchmarks.h"
#include "wam/Machine.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace awam;

namespace {

class BenchmarkProgramsTest : public ::testing::TestWithParam<size_t> {
protected:
  const BenchmarkProgram &bench() const {
    return benchmarkPrograms()[GetParam()];
  }
};

TEST_P(BenchmarkProgramsTest, CompilesAndRunsConcretely) {
  SymbolTable Syms;
  TermArena Arena;
  Result<CompiledProgram> P = compileSource(bench().Source, Syms, Arena);
  ASSERT_TRUE(P) << P.diag().str();
  EXPECT_TRUE(P->UndefinedPredicates.empty())
      << "undefined predicates in " << bench().Name;

  Machine M(*P);
  Parser GoalParser("main", Syms, Arena);
  Result<const Term *> Goal = GoalParser.readTerm();
  ASSERT_TRUE(Goal);
  EXPECT_TRUE(M.proves(*Goal, 0)) << bench().Name << ": main/0 failed";
}

TEST_P(BenchmarkProgramsTest, AnalyzesToFixpoint) {
  SymbolTable Syms;
  TermArena Arena;
  Result<CompiledProgram> P = compileSource(bench().Source, Syms, Arena);
  ASSERT_TRUE(P) << P.diag().str();

  AnalysisSession A(*P);
  Result<AnalysisResult> R = A.analyze(bench().EntrySpec);
  ASSERT_TRUE(R) << R.diag().str();
  EXPECT_TRUE(R->Converged) << bench().Name;
  EXPECT_GT(R->Items.size(), 0u);
  // main/0 must succeed abstractly (it succeeds concretely).
  bool MainSucceeds = false;
  for (const AnalysisResult::Item &I : R->Items)
    if (I.PredLabel == "main/0" && I.Success)
      MainSucceeds = true;
  EXPECT_TRUE(MainSucceeds) << bench().Name;
}

TEST_P(BenchmarkProgramsTest, BaselineAgreesWithCompiledAnalyzer) {
  SymbolTable Syms;
  TermArena Arena;
  Result<ParsedProgram> Parsed =
      parseProgram(bench().Source, Syms, Arena);
  ASSERT_TRUE(Parsed) << Parsed.diag().str();
  Result<CompiledProgram> Compiled = compileProgram(*Parsed, Syms);
  ASSERT_TRUE(Compiled) << Compiled.diag().str();

  AnalysisSession A(*Compiled);
  Result<AnalysisResult> RC = A.analyze(bench().EntrySpec);
  ASSERT_TRUE(RC) << RC.diag().str();

  MetaAnalyzer B(*Parsed, Syms);
  Result<AnalysisResult> RB = B.analyze(bench().EntrySpec);
  ASSERT_TRUE(RB) << RB.diag().str();

  auto summarize = [&](const AnalysisResult &R) {
    std::vector<std::string> Lines;
    for (const AnalysisResult::Item &I : R.Items)
      Lines.push_back(I.PredLabel + " " + I.Call.str(Syms) + " -> " +
                      (I.Success ? I.Success->str(Syms) : "(fails)"));
    std::sort(Lines.begin(), Lines.end());
    return Lines;
  };
  EXPECT_EQ(summarize(*RC), summarize(*RB)) << bench().Name;
}

std::string benchName(const ::testing::TestParamInfo<size_t> &Info) {
  return std::string(benchmarkPrograms()[Info.param].Name);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, BenchmarkProgramsTest,
                         ::testing::Range<size_t>(0,
                                                  benchmarkPrograms().size()),
                         benchName);

} // namespace
