//===- tests/DomainTest.cpp - Pluggable abstract-domain tests -------------===//
//
// The domain framework's contracts:
//
//  * the registry resolves names, rejects unknown ones with the registered
//    list, and the session surfaces that error;
//  * every registered domain runs through the whole driver stack on all
//    Table 1 benchmarks — worklist, incremental (reanalyze == scratch)
//    and the persistent store (warm == scratch);
//  * the det domain's fixpoint is exactly the default domain's (it only
//    derives facts), and its listing is pinned against a golden;
//  * the pos domain is strictly more precise than a plain ground/any
//    domain on several benchmarks: its success truth tables exclude
//    valuations the root tuple alone admits (pinned implications).
//
//===----------------------------------------------------------------------===//

#include "analyzer/Domain.h"
#include "analyzer/PosDomain.h"
#include "analyzer/Session.h"
#include "programs/Benchmarks.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace awam;

namespace {

const char *const kBenchNames[] = {"log10",    "ops8",  "times10", "divide10",
                                   "tak",      "nreverse", "qsort", "query",
                                   "zebra",    "serialise", "queens_8"};

/// Compiles a benchmark into caller-owned state.
struct Compiled {
  SymbolTable Syms;
  TermArena Arena;
  Result<CompiledProgram> Program = makeError("unloaded");

  explicit Compiled(const char *Bench) {
    const BenchmarkProgram *B = findBenchmark(Bench);
    EXPECT_NE(B, nullptr) << Bench;
    if (!B)
      return;
    Program = compileSource(B->Source, Syms, Arena);
    EXPECT_TRUE(Program) << Bench << ": " << Program.diag().str();
  }
};

/// The comparable projection of one analysis: report + derived facts.
std::string reportOf(const AnalysisResult &R, const Compiled &C) {
  std::string Out = formatAnalysis(R, C.Syms);
  if (R.Dom)
    Out += R.Dom->formatFacts(R, *C.Program);
  return Out;
}

AnalyzerOptions domainOptions(const std::string &Domain) {
  AnalyzerOptions O;
  O.DomainName = Domain;
  return O;
}

//===--------------------------------------------------------------------===//
// Registry
//===--------------------------------------------------------------------===//

TEST(DomainRegistryTest, RegisteredDomainsAreStable) {
  const std::vector<const Domain *> &All = registeredDomains();
  ASSERT_EQ(All.size(), 3u);
  EXPECT_EQ(All[0], &defaultDomain());
  EXPECT_EQ(All[0]->name(), "modes");
  EXPECT_EQ(All[1]->name(), "pos");
  EXPECT_EQ(All[2]->name(), "det");
  EXPECT_EQ(registeredDomainNames(), "modes, pos, det");
  // Default options select the paper's domain by name, so analyzing
  // under "modes" is analyzing with plain options.
  EXPECT_EQ(AnalyzerOptions{}.DomainName, All[0]->name());
}

TEST(DomainRegistryTest, FindAndResolve) {
  EXPECT_EQ(findDomain("modes"), &defaultDomain());
  EXPECT_EQ(findDomain("pos"), &posDomain());
  EXPECT_EQ(findDomain("det"), &detDomain());
  EXPECT_EQ(findDomain("nope"), nullptr);

  Result<const Domain *> D = resolveDomain("pos");
  ASSERT_TRUE(D);
  EXPECT_EQ(*D, &posDomain());

  Result<const Domain *> Bad = resolveDomain("nope");
  ASSERT_FALSE(Bad);
  std::string Msg = Bad.diag().str();
  EXPECT_NE(Msg.find("unknown abstract domain 'nope'"), std::string::npos)
      << Msg;
  EXPECT_NE(Msg.find("modes, pos, det"), std::string::npos) << Msg;
}

TEST(DomainRegistryTest, SessionRejectsUnknownAndUninternedDomains) {
  Compiled C("qsort");
  ASSERT_TRUE(C.Program);
  AnalysisSession Bad(*C.Program, domainOptions("nope"));
  Result<AnalysisResult> R = Bad.analyze("main");
  ASSERT_FALSE(R);
  EXPECT_NE(R.diag().str().find("unknown abstract domain"),
            std::string::npos);

  AnalyzerOptions NoInterning = domainOptions("pos");
  NoInterning.UseInterning = false;
  AnalysisSession Plain(*C.Program, NoInterning);
  Result<AnalysisResult> R2 = Plain.analyze("main");
  ASSERT_FALSE(R2);
  EXPECT_NE(R2.diag().str().find("requires the interned fast path"),
            std::string::npos)
      << R2.diag().str();
}

//===--------------------------------------------------------------------===//
// Every domain through every driver, on every benchmark
//===--------------------------------------------------------------------===//

class DomainDriverTest : public ::testing::TestWithParam<const char *> {};

TEST_P(DomainDriverTest, ReanalyzeMatchesScratch) {
  std::string Domain = GetParam();
  for (const char *Bench : kBenchNames) {
    Compiled C(Bench);
    ASSERT_TRUE(C.Program);
    AnalysisSession Scratch(*C.Program, domainOptions(Domain));
    Result<AnalysisResult> S = Scratch.analyze("main");
    ASSERT_TRUE(S) << Bench << ": " << S.diag().str();
    EXPECT_EQ(S->Dom, findDomain(Domain));

    AnalyzerOptions O = domainOptions(Domain);
    AnalysisSession Inc(*C.Program, O);
    Result<AnalysisResult> First = Inc.analyze("main");
    ASSERT_TRUE(First) << Bench << ": " << First.diag().str();
    // The program is unchanged, so the store's replay must land on the
    // same table — byte-identical report and facts.
    Result<AnalysisResult> Re = Inc.reanalyze({{"main", 0}});
    ASSERT_TRUE(Re) << Bench << ": " << Re.diag().str();
    EXPECT_EQ(reportOf(*S, C), reportOf(*Re, C)) << Domain << " " << Bench;
  }
}

TEST_P(DomainDriverTest, WarmStoreQueriesMatchScratch) {
  std::string Domain = GetParam();
  for (const char *Bench : kBenchNames) {
    Compiled C(Bench);
    ASSERT_TRUE(C.Program);
    AnalysisSession Scratch(*C.Program, domainOptions(Domain));
    Result<AnalysisResult> S = Scratch.analyze("main");
    ASSERT_TRUE(S) << Bench << ": " << S.diag().str();

    AnalyzerOptions O = domainOptions(Domain);
    AnalysisSession Store(*C.Program, O);
    // Same entry twice through one store: the second answer is warm (a
    // cache hit) and must still be byte-identical to scratch.
    Result<std::vector<AnalysisResult>> Batch =
        Store.analyzeBatch({"main", "main"});
    ASSERT_TRUE(Batch) << Bench << ": " << Batch.diag().str();
    ASSERT_EQ(Batch->size(), 2u);
    EXPECT_EQ(reportOf(*S, C), reportOf((*Batch)[0], C))
        << Domain << " " << Bench;
    EXPECT_EQ(reportOf(*S, C), reportOf((*Batch)[1], C))
        << Domain << " " << Bench;
  }
}

INSTANTIATE_TEST_SUITE_P(AllDomains, DomainDriverTest,
                         ::testing::Values("modes", "pos", "det"),
                         [](const auto &Info) {
                           return std::string(Info.param);
                         });

//===--------------------------------------------------------------------===//
// Det domain: default fixpoint plus a pinned fact listing
//===--------------------------------------------------------------------===//

TEST(DetDomainTest, FixpointMatchesDefaultDomain) {
  // Det only derives facts: its pattern table must equal the default
  // domain's on every benchmark.
  for (const char *Bench : kBenchNames) {
    Compiled C(Bench);
    ASSERT_TRUE(C.Program);
    AnalysisSession Modes(*C.Program, domainOptions("modes"));
    AnalysisSession Det(*C.Program, domainOptions("det"));
    Result<AnalysisResult> RM = Modes.analyze("main");
    Result<AnalysisResult> RD = Det.analyze("main");
    ASSERT_TRUE(RM) << Bench;
    ASSERT_TRUE(RD) << Bench;
    EXPECT_EQ(formatAnalysis(*RM, C.Syms), formatAnalysis(*RD, C.Syms))
        << Bench;
  }
}

TEST(DetDomainTest, GoldenFactListing) {
  struct Golden {
    const char *Bench;
    const char *Facts;
  };
  const Golden Goldens[] = {
      {"tak", "determinism facts:\n"
              "  main/0 (): semidet\n"
              "  tak/4 (int, int, int, var): semidet\n"},
      {"nreverse",
       "determinism facts:\n"
       "  main/0 (): semidet\n"
       "  nreverse/2 ([int,int,int|glist], var): semidet\n"
       "  nreverse/2 ([int,int|glist], var): semidet\n"
       "  nreverse/2 ([int|glist], var): semidet\n"
       "  nreverse/2 (glist, var): semidet\n"
       "  concatenate/3 ([], [g], var): semidet\n"
       "  concatenate/3 (glist, [int], var): semidet\n"
       "  concatenate/3 ([g|intlist], [int], var): semidet\n"
       "  concatenate/3 (intlist, [int], var): semidet\n"
       "  concatenate/3 ([g,int|intlist], [int], var): semidet\n"
       "  concatenate/3 ([int|intlist], [int], var): semidet\n"
       "  concatenate/3 (glist, [g], var): semidet\n"
       "  concatenate/3 ([g|glist], [int], var): semidet\n"
       "  concatenate/3 ([g,g|glist], [int], var): semidet\n"},
  };
  for (const Golden &G : Goldens) {
    Compiled C(G.Bench);
    ASSERT_TRUE(C.Program);
    AnalysisSession A(*C.Program, domainOptions("det"));
    Result<AnalysisResult> R = A.analyze("main");
    ASSERT_TRUE(R) << G.Bench;
    ASSERT_NE(R->Dom, nullptr);
    EXPECT_EQ(R->Dom->formatFacts(*R, *C.Program), G.Facts) << G.Bench;
  }
}

TEST(DetDomainTest, EveryItemGetsAFact) {
  for (const char *Bench : kBenchNames) {
    Compiled C(Bench);
    ASSERT_TRUE(C.Program);
    AnalysisSession A(*C.Program, domainOptions("det"));
    Result<AnalysisResult> R = A.analyze("main");
    ASSERT_TRUE(R) << Bench;
    std::string Facts = R->Dom->formatFacts(*R, *C.Program);
    for (const AnalysisResult::Item &It : R->Items)
      EXPECT_NE(Facts.find("  " + It.PredLabel + " "), std::string::npos)
          << Bench << ": no fact for " << It.PredLabel;
  }
}

//===--------------------------------------------------------------------===//
// Pos domain: strictly more precise than plain ground/any
//===--------------------------------------------------------------------===//

/// The truth table a dependency-free ground/any domain would claim for a
/// success pattern: every valuation consistent with the root tuple (g
/// roots forced, any roots free).
uint64_t productMask(const PatternRef &P) {
  uint64_t Mask = 0;
  size_t N = P.NumRoots;
  for (uint32_t V = 0; V != (1u << N); ++V) {
    bool Ok = true;
    for (size_t I = 0; I != N && Ok; ++I)
      if (P.Nodes[P.Roots[I]].K == PatKind::GroundP && !((V >> I) & 1))
        Ok = false;
    if (Ok)
      Mask |= 1ull << V;
  }
  return Mask;
}

TEST(PosDomainTest, StrictlyMorePreciseThanGroundAnyOnPinnedBenchmarks) {
  // Each pinned entry has a success summary whose truth table excludes
  // valuations the plain root tuple admits — information a ground/any
  // domain cannot express. The implication rendering is pinned too.
  struct Pinned {
    const char *Bench;
    const char *Entry;
    const char *Pred;
    const char *Rendered;
  };
  const Pinned Cases[] = {
      {"nreverse", "concatenate/3", "concatenate/3",
       "(any, any, any) [x1<-x3, x2<-x3, x3<-x1&x2]"},
      {"qsort", "qsort/3", "qsort/3",
       "(any, any, any) [x1<-x2, x2<-x1&x3, x3<-x2]"},
      {"serialise", "pairlists/3", "pairlists/3",
       "(any, any, any) [x1<-x3, x2<-x3, x3<-x1&x2]"},
      {"zebra", "member/2", "member/2", "(any, any) [x1<-x2]"},
      {"tak", "tak/4", "tak/4", "(g, g, any, any) [x3<-x4, x4<-x3]"},
  };
  for (const Pinned &P : Cases) {
    Compiled C(P.Bench);
    ASSERT_TRUE(C.Program);
    AnalysisSession A(*C.Program, domainOptions("pos"));
    Result<AnalysisResult> R = A.analyze(P.Entry);
    ASSERT_TRUE(R) << P.Bench << ": " << R.diag().str();
    ASSERT_EQ(R->Dom, &posDomain());
    bool Found = false;
    for (const AnalysisResult::Item &It : R->Items) {
      if (It.PredLabel != P.Pred || !It.Success)
        continue;
      PatternRef S(*It.Success);
      if (!posPatternHasTT(S))
        continue;
      uint64_t TT = posPatternTT(S);
      uint64_t Product = productMask(S);
      // Sound: never claims a valuation outside the root tuple...
      EXPECT_EQ(TT & ~Product, 0u) << P.Bench << " " << P.Pred;
      if (TT != Product &&
          R->Dom->formatPattern(*It.Success, C.Syms) == P.Rendered)
        Found = true;
    }
    EXPECT_TRUE(Found) << P.Bench << ": no summary of " << P.Pred
                       << " rendered as \"" << P.Rendered << "\"";
  }
}

TEST(PosDomainTest, CallPatternsAreGroundAnyTuples) {
  for (const char *Bench : kBenchNames) {
    Compiled C(Bench);
    ASSERT_TRUE(C.Program);
    AnalysisSession A(*C.Program, domainOptions("pos"));
    Result<AnalysisResult> R = A.analyze("main");
    ASSERT_TRUE(R) << Bench;
    for (const AnalysisResult::Item &It : R->Items) {
      for (int32_t Root : It.Call.Roots) {
        PatKind K = It.Call.Nodes[Root].K;
        EXPECT_TRUE(K == PatKind::GroundP || K == PatKind::AnyP)
            << Bench << " " << It.PredLabel;
      }
      // Call patterns never carry a truth table; success patterns of
      // arity 1..kPosMaxTTArity always do.
      EXPECT_FALSE(posPatternHasTT(PatternRef(It.Call)))
          << Bench << " " << It.PredLabel;
      if (It.Success && !It.Success->Roots.empty() &&
          It.Success->Roots.size() <= static_cast<size_t>(kPosMaxTTArity))
        EXPECT_TRUE(posPatternHasTT(PatternRef(*It.Success)))
            << Bench << " " << It.PredLabel;
    }
  }
}

} // namespace
