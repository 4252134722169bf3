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
// The scale ladder runs the same pipeline on generated programs of 0.6k
// to 12k clauses, compiled as separate library and user units and linked:
// the warm answer equals the cold one and replays every banked trace, and
// in builds without sanitizers warm analysis beats cold on all but at
// most two programs.
//
//===----------------------------------------------------------------------===//

#include "analyzer/Session.h"
#include "programs/Benchmarks.h"
#include "support/Timer.h"
#include "RandomProgramGen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>

using namespace awam;

namespace {

// Sanitizers slow each side by different factors, so the timing bound
// holds only in plain builds.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

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

TEST(ScaleLadderTest, WarmFromBundleMatchesColdAndBeatsIt) {
  // Two-unit corpora at 625 to 10,000 requested clauses (each analyzed
  // from its whole-program driver), plus two DCG grammars. Every rung runs
  // cold on a fresh persistent session, exports, and runs warm on another
  // fresh session that imported the bundle.
  struct Rung {
    std::string Name;
    std::vector<std::string> Units; ///< library first
    std::string Entry;
  };
  std::vector<Rung> Ladder;
  const std::pair<int, uint64_t> Corpora[] = {
      {625, 101},  {1250, 102}, {2500, 103}, {3750, 104},
      {5000, 105}, {6250, 106}, {7500, 107}, {10000, 108}};
  for (const auto &[Clauses, Seed] : Corpora) {
    testgen::CorpusOptions O;
    O.Clauses = Clauses;
    testgen::Corpus C = testgen::generateCorpus(Seed, O);
    Ladder.push_back({"corpus" + std::to_string(Clauses),
                      {C.Library, C.User},
                      C.Entries.back()});
  }
  for (int Nonterminals : {100, 200}) {
    testgen::GrammarOptions O;
    O.Nonterminals = Nonterminals;
    O.RulesPerNt = 4;
    Ladder.push_back({"grammar" + std::to_string(Nonterminals),
                      {testgen::generateGrammar(7, O)},
                      "nt" + std::to_string(Nonterminals - 1) +
                          "(glist, var)"});
  }

  int Slower = 0;
  std::string Times; // per rung: cold and warm ms, for the failure message
  for (const Rung &G : Ladder) {
    SCOPED_TRACE(G.Name);
    SymbolTable Syms;
    TermArena Arena;
    std::vector<CompiledProgram> Units;
    for (const std::string &Source : G.Units) {
      Result<CompiledProgram> C = compileSource(Source, Syms, Arena);
      ASSERT_TRUE(C) << C.diag().str();
      Units.push_back(C.take());
    }
    const CompiledProgram *Program = &Units.front();
    std::optional<LinkedProgram> Linked;
    if (Units.size() > 1) {
      Result<LinkedProgram> L =
          linkPrograms({{&Units[0], "lib"}, {&Units[1], "user"}});
      ASSERT_TRUE(L) << L.diag().str();
      ASSERT_TRUE(L->UnresolvedImports.empty());
      Linked.emplace(L.take());
      Program = &Linked->Program;
    }

    AnalyzerOptions O;
    std::string Report, Bundle;
    // Each side's time is the minimum of three alternating runs; a
    // sanitized build, which asserts no time bound, runs each side once.
    double ColdMs = std::numeric_limits<double>::infinity();
    double WarmMs = ColdMs;
    for (int Run = 0; Run != (kSanitized ? 1 : 3); ++Run) {
      AnalysisSession Cold(*Program, O);
      Timer T;
      Result<AnalysisResult> RC = Cold.analyze(G.Entry);
      ColdMs = std::min(ColdMs, T.elapsedMs());
      ASSERT_TRUE(RC) << RC.diag().str();
      if (Run == 0) {
        Report = formatAnalysis(*RC, Syms);
        Result<std::string> B = Cold.exportSummaries();
        ASSERT_TRUE(B) << B.diag().str();
        Bundle = B.take();
      }

      AnalysisSession Warm(*Program, O);
      Result<AnalysisStore::ImportStats> IS = Warm.importSummaries(Bundle);
      ASSERT_TRUE(IS) << IS.diag().str();
      T.reset();
      Result<AnalysisResult> RW = Warm.analyze(G.Entry);
      WarmMs = std::min(WarmMs, T.elapsedMs());
      ASSERT_TRUE(RW) << RW.diag().str();
      EXPECT_EQ(formatAnalysis(*RW, Syms), Report);
      // The warm query replays every banked trace.
      EXPECT_GT(IS->Banked, 0u);
      EXPECT_EQ(Warm.store()->stats().ReplayedRuns, IS->Banked);
    }
    Slower += !(WarmMs < ColdMs);
    Times += G.Name + ": cold " + std::to_string(ColdMs) + " ms, warm " +
             std::to_string(WarmMs) + " ms\n";
  }
  if (!kSanitized) {
    EXPECT_LE(Slower, 2) << Times;
  }
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
