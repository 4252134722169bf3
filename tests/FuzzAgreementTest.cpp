//===- tests/FuzzAgreementTest.cpp - Randomized analyzer agreement --------===//
//
// Generates random programs (seeded, reproducible) and checks that the
// compiled abstract WAM and the meta-interpreting baseline compute
// identical extension tables on each. Analysis always terminates (finite
// domain), so arbitrary program shapes are safe — including ones no
// hand-written test would think of.
//
//===----------------------------------------------------------------------===//

#include "analyzer/Session.h"
#include "baseline/MetaAnalyzer.h"
#include "RandomProgramGen.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace awam;
using awam::testgen::generateProgram;

namespace {

class FuzzAgreementTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(FuzzAgreementTest, CompiledAndBaselineAgree) {
  std::string Source = generateProgram(GetParam());
  SCOPED_TRACE(Source);

  SymbolTable Syms;
  TermArena Arena;
  Result<ParsedProgram> Parsed = parseProgram(Source, Syms, Arena);
  ASSERT_TRUE(Parsed) << Parsed.diag().str();
  Result<CompiledProgram> Compiled = compileProgram(*Parsed, Syms);
  ASSERT_TRUE(Compiled) << Compiled.diag().str();

  // Analyze every predicate with all-any entry patterns for maximal
  // coverage of the generated code.
  for (const ParsedClause &C : Parsed->Clauses) {
    std::string Name(Syms.name(C.Head->functor()));
    if (Name.starts_with("$"))
      continue; // desugaring artifacts analyzed transitively
    int Arity = C.Head->isStruct() ? C.Head->arity() : 0;
    Pattern Entry = makeEntryPattern(
        std::vector<PatKind>(Arity, PatKind::AnyP));

    AnalysisSession A(*Compiled);
    Result<AnalysisResult> RC = A.analyze(Name, Entry);
    ASSERT_TRUE(RC) << Name << ": " << RC.diag().str();

    MetaAnalyzer B(*Parsed, Syms);
    Result<AnalysisResult> RB = B.analyze(Name, Entry);
    ASSERT_TRUE(RB) << Name << ": " << RB.diag().str();

    auto summarize = [&](const AnalysisResult &R) {
      std::vector<std::string> Lines;
      for (const AnalysisResult::Item &I : R.Items)
        Lines.push_back(I.PredLabel + " " + I.Call.str(Syms) + " -> " +
                        (I.Success ? I.Success->str(Syms) : "(fails)"));
      std::sort(Lines.begin(), Lines.end());
      return Lines;
    };
    EXPECT_EQ(summarize(*RC), summarize(*RB)) << "entry " << Name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzAgreementTest,
                         ::testing::Range(0u, 60u));

} // namespace
