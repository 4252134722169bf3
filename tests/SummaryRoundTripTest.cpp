//===- tests/SummaryRoundTripTest.cpp - Bundle round-trip sweep -----------===//
//
// Satellite sweep for the summary-bundle pipeline: every Table-1
// benchmark, under every registered domain, is analyzed in a persistent
// store and exported, and the bundle is carried through a chain of 1 or 4
// transfers: each transfer imports the previous store's export into a
// FRESH store over the same program, re-analyzes, and re-exports. Every
// warm result must be byte-identical to the original, and export must be
// deterministic (two exports of one store agree bit-for-bit). Bundles
// compose — a re-export holds the store's own traces plus the surviving
// imported ones — so the longer chain checks that composition never moves
// an answer either.
//
//===----------------------------------------------------------------------===//

#include "analyzer/Session.h"
#include "programs/Benchmarks.h"

#include <gtest/gtest.h>

using namespace awam;

namespace {

/// (domain name, number of export -> import transfers).
class SummaryRoundTripTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(SummaryRoundTripTest, ExportImportAnalyzeIsByteIdentical) {
  const auto &[DomainName, Transfers] = GetParam();
  int Checked = 0;
  for (const BenchmarkProgram &B : benchmarkPrograms()) {
    SCOPED_TRACE(std::string(B.Name));
    SymbolTable Syms;
    TermArena Arena;
    Result<CompiledProgram> P = compileSource(B.Source, Syms, Arena);
    ASSERT_TRUE(P) << P.diag().str();

    AnalyzerOptions O;
    O.Persistent = true;
    O.DomainName = DomainName;

    AnalysisSession Cold(*P, O);
    Result<AnalysisResult> RC = Cold.analyze(B.EntrySpec);
    ASSERT_TRUE(RC) << RC.diag().str();
    Result<std::string> Bundle = Cold.exportSummaries();
    ASSERT_TRUE(Bundle) << Bundle.diag().str();

    // Export is deterministic: the same store serializes to the same
    // bytes every time.
    Result<std::string> Bundle2 = Cold.exportSummaries();
    ASSERT_TRUE(Bundle2) << Bundle2.diag().str();
    EXPECT_EQ(*Bundle2, *Bundle);

    for (int T = 1; T <= Transfers; ++T) {
      SCOPED_TRACE("transfer " + std::to_string(T));
      AnalysisSession Warm(*P, O);
      Result<AnalysisStore::ImportStats> IS = Warm.importSummaries(*Bundle);
      ASSERT_TRUE(IS) << IS.diag().str();
      EXPECT_EQ(IS->DroppedStale, 0u);
      EXPECT_EQ(IS->DroppedUnresolved, 0u);
      Result<AnalysisResult> RW = Warm.analyze(B.EntrySpec);
      ASSERT_TRUE(RW) << RW.diag().str();

      // The warm analysis is byte-identical to the cold one.
      EXPECT_EQ(formatAnalysis(*RW, Syms), formatAnalysis(*RC, Syms));

      // Converged cold runs with recorded traces must actually
      // warm-start.
      if (RC->Converged && IS->Banked > 0) {
        ASSERT_NE(Warm.store(), nullptr);
        EXPECT_EQ(Warm.store()->stats().WarmQueries, 1u);
      }

      // The next transfer starts from this store's re-export.
      Bundle = Warm.exportSummaries();
      ASSERT_TRUE(Bundle) << Bundle.diag().str();
    }
    ++Checked;
  }
  EXPECT_EQ(Checked, 11);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SummaryRoundTripTest,
    ::testing::Combine(::testing::Values("modes", "pos", "det"),
                       ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, int>> &I) {
      return std::get<0>(I.param) + "_t" +
             std::to_string(std::get<1>(I.param));
    });

} // namespace
