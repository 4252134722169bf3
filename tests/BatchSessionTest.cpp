//===- tests/BatchSessionTest.cpp - Persistent store / batch tests --------===//
//
// The persistent AnalysisStore must be invisible in every answer: a warm
// query's per-root projection — report, modes, schedule counters — is
// byte-identical to a from-scratch analyze() of that entry, the final
// store contents are independent of query order,
// and failing queries (bad specs, budget hits) leave the store untouched.
// This suite pins those contracts on all Table 1 benchmarks (querying
// every defined predicate through one warm store), on randomized programs
// under permuted query orders, and on the batch / reanalyze surfaces.
//
//===----------------------------------------------------------------------===//

#include "analyzer/Session.h"
#include "analyzer/Store.h"
#include "programs/Benchmarks.h"
#include "RandomProgramGen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

using namespace awam;

namespace {

/// Everything the per-root identity contract covers: the formatted
/// reports plus the schedule counters. Probe and interner
/// statistics are deliberately absent (a shared interner reports
/// per-query deltas; the report does not print them).
std::string fingerprint(const AnalysisResult &R, const SymbolTable &Syms) {
  std::string F = formatAnalysis(R, Syms);
  F += formatModes(R, Syms);
  F += "\niters=" + std::to_string(R.Iterations);
  F += " conv=" + std::to_string(R.Converged);
  F += " instr=" + std::to_string(R.Counters.Instructions);
  F += " acts=" + std::to_string(R.Counters.ActivationRuns);
  F += " runs=" + std::to_string(R.Counters.SchedulerRuns);
  F += " edges=" + std::to_string(R.Counters.DepEdges);
  return F;
}

/// A query's outcome as a comparable string: the fingerprint on success,
/// the diagnostic otherwise. Order-independence must hold for errors too.
std::string outcomeOf(const Result<AnalysisResult> &R,
                      const SymbolTable &Syms) {
  return R ? fingerprint(*R, Syms) : "ERROR: " + R.diag().str();
}

std::unique_ptr<CompiledProgram> compileOrDie(const std::string &Source,
                                              SymbolTable &Syms,
                                              TermArena &Arena) {
  Result<CompiledProgram> P = compileSource(Source, Syms, Arena);
  EXPECT_TRUE(P) << P.diag().str() << "\n--- source ---\n" << Source;
  if (!P)
    return nullptr;
  return std::make_unique<CompiledProgram>(P.take());
}

/// One spec per defined predicate of \p P, all-any arguments.
std::vector<std::string> definedPredSpecs(const CompiledProgram &P,
                                          const SymbolTable &Syms) {
  std::vector<std::string> Specs;
  for (int32_t I = 0; I != P.Module->numPredicates(); ++I) {
    const PredicateInfo &PI = P.Module->predicate(I);
    if (PI.Clauses.empty())
      continue;
    std::string Name(Syms.name(PI.Name));
    Specs.push_back(PI.Arity == 0 ? Name
                                  : Name + "/" + std::to_string(PI.Arity));
  }
  return Specs;
}

TEST(BatchSessionTest, WarmQueriesMatchScratchOnAllBenchmarks) {
  // Every Table 1 benchmark: push the entry spec plus every defined
  // predicate through one warm persistent session; each answer must match
  // a from-scratch session on that spec byte-for-byte, and re-asking the
  // first spec must come from the result cache unchanged.
  int Checked = 0;
  uint64_t TotalWarm = 0, TotalReplayed = 0;
  for (const BenchmarkProgram &B : benchmarkPrograms()) {
    SymbolTable Syms;
    TermArena Arena;
    std::unique_ptr<CompiledProgram> P =
        compileOrDie(std::string(B.Source), Syms, Arena);
    ASSERT_NE(P, nullptr) << B.Name;

    std::vector<std::string> Specs{std::string(B.EntrySpec)};
    for (std::string &S : definedPredSpecs(*P, Syms))
      if (S != B.EntrySpec)
        Specs.push_back(std::move(S));

    AnalysisSession Warm(*P);
    std::string FirstOutcome;
    for (const std::string &Spec : Specs) {
      Result<AnalysisResult> RWarm = Warm.analyze(Spec);

      AnalysisSession Scratch(*P);
      Result<AnalysisResult> RScr = Scratch.analyze(Spec);

      EXPECT_EQ(outcomeOf(RScr, Syms), outcomeOf(RWarm, Syms))
          << B.Name << " spec " << Spec;
      if (FirstOutcome.empty())
        FirstOutcome = outcomeOf(RWarm, Syms);
    }

    // Repeat of the first spec: a pure cache hit with the identical answer.
    ASSERT_NE(Warm.store(), nullptr) << B.Name;
    uint64_t HitsBefore = Warm.store()->stats().CacheHits;
    Result<AnalysisResult> RAgain = Warm.analyze(Specs.front());
    EXPECT_EQ(FirstOutcome, outcomeOf(RAgain, Syms)) << B.Name;
    EXPECT_EQ(Warm.store()->stats().CacheHits, HitsBefore + 1) << B.Name;

    TotalWarm += Warm.store()->stats().WarmQueries;
    TotalReplayed += Warm.store()->stats().ReplayedRuns;
    ++Checked;
  }
  EXPECT_EQ(Checked, 11);
  // The mechanism must actually engage: queries past the first drain warm
  // and replay banked runs rather than re-executing everything.
  EXPECT_GT(TotalWarm, 0u);
  EXPECT_GT(TotalReplayed, 0u);
}

TEST(BatchSessionTest, AnalyzeBatchMatchesIndividualScratchRuns) {
  const BenchmarkProgram &B = benchmarkPrograms().front();
  SymbolTable Syms;
  TermArena Arena;
  std::unique_ptr<CompiledProgram> P =
      compileOrDie(std::string(B.Source), Syms, Arena);
  ASSERT_NE(P, nullptr);

  std::vector<std::string> Specs{std::string(B.EntrySpec)};
  for (std::string &S : definedPredSpecs(*P, Syms))
    if (S != B.EntrySpec)
      Specs.push_back(std::move(S));

  AnalysisSession S(*P);
  Result<std::vector<AnalysisResult>> Batch = S.analyzeBatch(Specs);
  ASSERT_TRUE(Batch) << Batch.diag().str();
  ASSERT_EQ(Batch->size(), Specs.size());
  for (size_t I = 0; I != Specs.size(); ++I) {
    AnalysisSession Scratch(*P);
    Result<AnalysisResult> RScr = Scratch.analyze(Specs[I]);
    ASSERT_TRUE(RScr) << Specs[I] << ": " << RScr.diag().str();
    EXPECT_EQ(fingerprint(*RScr, Syms), fingerprint((*Batch)[I], Syms))
        << Specs[I];
  }
  // Also warm on a non-persistent session: analyzeBatch shares a store
  // whenever the configuration allows one.
  AnalysisSession Plain(*P, AnalyzerOptions{});
  Result<std::vector<AnalysisResult>> Batch2 = Plain.analyzeBatch(Specs);
  ASSERT_TRUE(Batch2) << Batch2.diag().str();
  for (size_t I = 0; I != Specs.size(); ++I)
    EXPECT_EQ(fingerprint((*Batch)[I], Syms),
              fingerprint((*Batch2)[I], Syms))
        << Specs[I];
}

TEST(BatchSessionTest, BatchValidatesEverySpecUpFront) {
  // A bad spec anywhere in the list aborts before any analysis: the store
  // is exactly as it was — same contents, same query statistics.
  const BenchmarkProgram &B = benchmarkPrograms().front();
  SymbolTable Syms;
  TermArena Arena;
  std::unique_ptr<CompiledProgram> P =
      compileOrDie(std::string(B.Source), Syms, Arena);
  ASSERT_NE(P, nullptr);

  AnalysisSession S(*P);
  ASSERT_TRUE(S.analyze(B.EntrySpec));
  ASSERT_NE(S.store(), nullptr);
  std::string DumpBefore = S.store()->canonicalDump(Syms);
  uint64_t QueriesBefore = S.store()->stats().Queries;

  // Unparsable spec last: everything before it must NOT have run.
  Result<std::vector<AnalysisResult>> Bad1 =
      S.analyzeBatch({std::string(B.EntrySpec), "p(unclosed"});
  EXPECT_FALSE(Bad1);
  // Unknown predicate in the middle.
  Result<std::vector<AnalysisResult>> Bad2 = S.analyzeBatch(
      {std::string(B.EntrySpec), "no_such_pred/3", std::string(B.EntrySpec)});
  EXPECT_FALSE(Bad2);

  EXPECT_EQ(DumpBefore, S.store()->canonicalDump(Syms));
  EXPECT_EQ(QueriesBefore, S.store()->stats().Queries);
}

TEST(BatchSessionTest, FailingQueriesLeaveTheStoreUntouched) {
  // Interleave succeeding and failing queries: unknown entries error,
  // budget-hit queries return sound partial results but never merge, and
  // neither disturbs the merged state or the cached answers.
  SymbolTable Syms;
  TermArena Arena;
  const std::string Src =
      "app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).\n"
      "nrev([], []). nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).\n";
  std::unique_ptr<CompiledProgram> P = compileOrDie(Src, Syms, Arena);
  ASSERT_NE(P, nullptr);

  AnalysisSession S(*P);
  Result<AnalysisResult> R0 = S.analyze("app(glist, glist, var)");
  ASSERT_TRUE(R0) << R0.diag().str();
  ASSERT_NE(S.store(), nullptr);
  std::string Dump0 = S.store()->canonicalDump(Syms);
  std::string Fp0 = fingerprint(*R0, Syms);

  // Unknown entry predicate: an error, nothing written.
  EXPECT_FALSE(S.analyze("missing(var)"));
  EXPECT_EQ(Dump0, S.store()->canonicalDump(Syms));

  // Sweep budget zero: the nrev query cannot converge, so it must not
  // merge — and must not disturb what the app query banked.
  S.setBudgets(0, 200'000'000);
  Result<AnalysisResult> RBudget = S.analyze("nrev(glist, var)");
  ASSERT_TRUE(RBudget) << RBudget.diag().str();
  EXPECT_FALSE(RBudget->Converged);
  EXPECT_EQ(Dump0, S.store()->canonicalDump(Syms));

  // Step budget one: whether this surfaces as a machine error or an
  // unconverged partial result, the store stays untouched.
  S.setBudgets(1000, 1);
  Result<AnalysisResult> RSteps = S.analyze("nrev(glist, var)");
  if (RSteps) {
    EXPECT_FALSE(RSteps->Converged);
  }
  EXPECT_EQ(Dump0, S.store()->canonicalDump(Syms));

  // Budgets restored: the failed entry now converges and merges, and the
  // original root still answers from cache, unchanged.
  S.setBudgets(1000, 200'000'000);
  Result<AnalysisResult> R1 = S.analyze("nrev(glist, var)");
  ASSERT_TRUE(R1) << R1.diag().str();
  EXPECT_TRUE(R1->Converged);
  EXPECT_NE(Dump0, S.store()->canonicalDump(Syms));
  Result<AnalysisResult> RCache = S.analyze("app(glist, glist, var)");
  ASSERT_TRUE(RCache) << RCache.diag().str();
  EXPECT_EQ(Fp0, fingerprint(*RCache, Syms));
}

TEST(BatchSessionTest, QueryOrderIndependenceOnRandomPrograms) {
  // >= 30 random programs: run the same query set in three different
  // orders through three fresh stores. Every per-spec outcome and the
  // canonical store dump must be identical across orders.
  int Programs = 0;
  for (unsigned Seed = 0; Seed != 30; ++Seed) {
    SymbolTable Syms;
    TermArena Arena;
    std::string Src = testgen::generateProgram(Seed);
    std::unique_ptr<CompiledProgram> P = compileOrDie(Src, Syms, Arena);
    ASSERT_NE(P, nullptr) << "seed " << Seed;

    std::vector<std::string> Specs = definedPredSpecs(*P, Syms);
    ASSERT_FALSE(Specs.empty()) << "seed " << Seed;
    if (Specs.size() > 6)
      Specs.resize(6);

    std::vector<std::vector<std::string>> Orders;
    Orders.push_back(Specs);
    Orders.emplace_back(Specs.rbegin(), Specs.rend());
    std::vector<std::string> Rotated(Specs.begin() + Specs.size() / 2,
                                     Specs.end());
    Rotated.insert(Rotated.end(), Specs.begin(),
                   Specs.begin() + Specs.size() / 2);
    Orders.push_back(std::move(Rotated));

    std::vector<std::string> Dumps;
    std::vector<std::vector<std::string>> Outcomes;
    for (const std::vector<std::string> &Order : Orders) {
      AnalysisSession S(*P);
      std::vector<std::string> Got(Specs.size());
      for (const std::string &Spec : Order) {
        Result<AnalysisResult> R = S.analyze(Spec);
        size_t At = static_cast<size_t>(
            std::find(Specs.begin(), Specs.end(), Spec) - Specs.begin());
        Got[At] = outcomeOf(R, Syms);
      }
      ASSERT_NE(S.store(), nullptr) << "seed " << Seed;
      Dumps.push_back(S.store()->canonicalDump(Syms));
      Outcomes.push_back(std::move(Got));
    }
    for (size_t O = 1; O != Orders.size(); ++O) {
      EXPECT_EQ(Dumps[0], Dumps[O])
          << "seed " << Seed << " order " << O << "\n--- source ---\n" << Src;
      EXPECT_EQ(Outcomes[0], Outcomes[O])
          << "seed " << Seed << " order " << O << "\n--- source ---\n" << Src;
    }
    ++Programs;
  }
  EXPECT_GE(Programs, 30);
}

TEST(BatchSessionTest, ReanalyzeInvalidatesOnlyTheEditCone) {
  // Two independent subtrees queried as two roots; editing one side must
  // leave the other root's cached answer intact (its projection names no
  // edited predicate) while both sides match scratch sessions on the
  // edited program.
  SymbolTable Syms;
  TermArena Arena0, Arena1;
  const std::string Src = "a1(x). a2(X) :- a1(X).\n"
                          "b1(y). b2(X) :- b1(X).\n";
  std::unique_ptr<CompiledProgram> P0 = compileOrDie(Src, Syms, Arena0);
  ASSERT_NE(P0, nullptr);

  AnalysisSession S(*P0);
  Result<AnalysisResult> RA = S.analyze("a2(var)");
  ASSERT_TRUE(RA) << RA.diag().str();
  Result<AnalysisResult> RB = S.analyze("b2(var)");
  ASSERT_TRUE(RB) << RB.diag().str();
  ASSERT_NE(S.store(), nullptr);
  std::string FpA = fingerprint(*RA, Syms);

  // Edit the b-side only (same symbol table, recompiled source).
  std::unique_ptr<CompiledProgram> P1 =
      compileOrDie(Src + "b1(z).\n", Syms, Arena1);
  ASSERT_NE(P1, nullptr);
  Result<AnalysisResult> RB2 = S.reanalyze(*P1);
  ASSERT_TRUE(RB2) << RB2.diag().str();

  const AnalysisStore::Stats &St = S.store()->stats();
  EXPECT_EQ(St.InvalidatedRoots, 1u);
  EXPECT_GE(St.InvalidatedEntries, 1u);

  // The a-side survived: answered from cache, byte-identical to scratch
  // on the edited program.
  uint64_t HitsBefore = St.CacheHits;
  Result<AnalysisResult> RA2 = S.analyze("a2(var)");
  ASSERT_TRUE(RA2) << RA2.diag().str();
  EXPECT_EQ(S.store()->stats().CacheHits, HitsBefore + 1);
  EXPECT_EQ(FpA, fingerprint(*RA2, Syms));

  for (const char *Spec : {"a2(var)", "b2(var)"}) {
    AnalysisSession Scratch(*P1);
    Result<AnalysisResult> RScr = Scratch.analyze(Spec);
    ASSERT_TRUE(RScr) << Spec << ": " << RScr.diag().str();
    Result<AnalysisResult> RStore = S.analyze(Spec);
    ASSERT_TRUE(RStore) << Spec << ": " << RStore.diag().str();
    EXPECT_EQ(fingerprint(*RScr, Syms), fingerprint(*RStore, Syms)) << Spec;
  }
}

/// Checks through canonicalDump, whose root tags come from the valid
/// roots' projections, that every entry of \p St's table lies in one.
void expectEveryEntryInAValidRoot(const AnalysisStore &St,
                                  const SymbolTable &Syms) {
  std::string Dump = St.canonicalDump(Syms);
  size_t Lines = 0;
  for (size_t B = 0, E; (E = Dump.find('\n', B)) != std::string::npos;
       B = E + 1, ++Lines)
    EXPECT_FALSE(Dump.substr(B, E - B).ends_with("roots:")) << Dump;
  EXPECT_EQ(Lines, St.table().size()) << Dump;
}

TEST(BatchSessionTest, EveryStoreEntryLiesInAValidRootsProjection) {
  // Export and canonicalDump take root membership from the valid roots'
  // projections alone, so every store-table entry must lie in one: after
  // the adopting first merge, after general merges that share a1(var),
  // and after an edit that kills a root nobody re-queries.
  SymbolTable Syms;
  TermArena Arena;
  std::unique_ptr<CompiledProgram> P =
      compileOrDie("a1(x). a2(X) :- a1(X).\n"
                   "b1(y). b2(X) :- a1(X), b1(X).\n",
                   Syms, Arena);
  ASSERT_NE(P, nullptr);
  AnalysisSession S(*P);
  for (const char *Spec : {"a2(var)", "b2(var)", "a1(var)"}) {
    Result<AnalysisResult> R = S.analyze(Spec);
    ASSERT_TRUE(R) << Spec << ": " << R.diag().str();
    expectEveryEntryInAValidRoot(*S.store(), Syms);
  }
  size_t Merged = S.store()->table().size();

  // Editing b1/1 kills b2's root; re-answering a2 is a cache hit.
  Result<AnalysisResult> R = S.reanalyze({PredSig{"b1", 1}}, "a2(var)");
  ASSERT_TRUE(R) << R.diag().str();
  const AnalysisStore::Stats &St = S.store()->stats();
  EXPECT_EQ(St.InvalidatedRoots, 1u);
  EXPECT_EQ(St.CacheHits, 1u);
  EXPECT_EQ(S.store()->numRoots(), 2u);
  EXPECT_LT(S.store()->table().size(), Merged);
  expectEveryEntryInAValidRoot(*S.store(), Syms);
}

TEST(BatchSessionErrorTest, PersistentRequiresWorklistWithInterning) {
  SymbolTable Syms;
  TermArena Arena;
  Result<CompiledProgram> P = compileSource("p(a).\n", Syms, Arena);
  ASSERT_TRUE(P) << P.diag().str();
  // Every worklist query runs on the store, which needs interning.
  AnalyzerOptions O;
  O.UseInterning = false;
  AnalysisSession S(*P, O);
  EXPECT_FALSE(S.analyze("p(var)"));
}

TEST(BatchSessionErrorTest, PersistentReanalyzeBeforeAnalyzeIsAnError) {
  SymbolTable Syms;
  TermArena Arena;
  Result<CompiledProgram> P = compileSource("p(a).\n", Syms, Arena);
  ASSERT_TRUE(P) << P.diag().str();
  AnalysisSession S(*P);
  EXPECT_FALSE(S.reanalyze({PredSig{"p", 1}}));
}

} // namespace
