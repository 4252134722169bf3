//===- tests/IncrementalTest.cpp - Incremental re-analysis tests ----------===//
//
// AnalysisSession::reanalyze() must be invisible in the result: on every
// edit, the re-analysis — table, counters, formatted report — is
// byte-identical to a from-scratch analyze() of the edited program,
// while the session's store replays (not executes) the activations the
// edit did not disturb. This suite pins that identity on all Table 1
// benchmarks, on chained edits, and on randomized clause-level edit
// sequences, plus which of many roots survive an edit, the replay-savings
// acceptance bar (strictly fewer executed activations than scratch on
// most benchmarks), the frame replay that lets a run which enters edited
// code replay its clean inline explorations, and the store's flat
// footprint under a long edit chain.
//
//===----------------------------------------------------------------------===//

#include "analyzer/Session.h"
#include "compiler/ModuleLink.h"
#include "programs/Benchmarks.h"
#include "RandomProgramGen.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

using namespace awam;

namespace {

/// Everything the identity contract covers: the formatted reports plus
/// the schedule counters. Probe and interner statistics are
/// deliberately absent (replay probes the table less; the report does not
/// print them).
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

std::unique_ptr<CompiledProgram> compileOrDie(const std::string &Source,
                                              SymbolTable &Syms,
                                              TermArena &Arena) {
  Result<CompiledProgram> P = compileSource(Source, Syms, Arena);
  EXPECT_TRUE(P) << P.diag().str() << "\n--- source ---\n" << Source;
  if (!P)
    return nullptr;
  return std::make_unique<CompiledProgram>(P.take());
}

TEST(IncrementalTest, TouchEditIdentityOnAllBenchmarks) {
  // Re-analysis after marking main/0 edited (every benchmark defines it)
  // with the program unchanged: the report and counters must match the
  // original run exactly, and — since only the traces that ran main's
  // clauses drop out of the store's bank — most of the drain must replay.
  int Checked = 0, StrictlyFewer = 0;
  uint64_t TotalReplayed = 0;
  for (const BenchmarkProgram &B : benchmarkPrograms()) {
    SymbolTable Syms;
    TermArena Arena;
    std::unique_ptr<CompiledProgram> P =
        compileOrDie(std::string(B.Source), Syms, Arena);
    ASSERT_NE(P, nullptr) << B.Name;

    AnalysisSession S(*P);
    Result<AnalysisResult> R0 = S.analyze(B.EntrySpec);
    ASSERT_TRUE(R0) << B.Name << ": " << R0.diag().str();

    Result<AnalysisResult> R1 = S.reanalyze({PredSig{"main", 0}});
    ASSERT_TRUE(R1) << B.Name << ": " << R1.diag().str();
    EXPECT_EQ(fingerprint(*R0, Syms), fingerprint(*R1, Syms)) << B.Name;

    // The first query ran cold on a fresh store, so the store's replay
    // counters are the reanalyze's own; whatever did not replay executed.
    ASSERT_NE(S.store(), nullptr) << B.Name;
    const AnalysisStore::Stats &St = S.store()->stats();
    ASSERT_LE(St.ReplayedActivations, R1->Counters.ActivationRuns) << B.Name;
    uint64_t Executed = R1->Counters.ActivationRuns - St.ReplayedActivations;
    if (St.WarmQueries) {
      EXPECT_EQ(St.ExecutedActivations, Executed) << B.Name;
    }
    if (Executed < R0->Counters.ActivationRuns)
      ++StrictlyFewer;
    TotalReplayed += St.ReplayedRuns;
    ++Checked;
  }
  EXPECT_EQ(Checked, 11);
  // The acceptance bar: strictly fewer re-executed activations than a
  // from-scratch run on at least 9 of the 11 benchmarks.
  EXPECT_GE(StrictlyFewer, 9);
  EXPECT_GT(TotalReplayed, 0u);
}

TEST(IncrementalTest, RealEditIdentityOnAllBenchmarks) {
  // Append a clause to main/0 of every benchmark and reanalyze through
  // the program-diffing overload; must match a scratch session on the
  // edited program byte-for-byte, and replay must spare executed work.
  int Checked = 0, StrictlyFewer = 0;
  for (const BenchmarkProgram &B : benchmarkPrograms()) {
    SymbolTable Syms;
    TermArena Arena;
    std::unique_ptr<CompiledProgram> P0 =
        compileOrDie(std::string(B.Source), Syms, Arena);
    ASSERT_NE(P0, nullptr) << B.Name;

    AnalysisSession S(*P0);
    Result<AnalysisResult> R0 = S.analyze(B.EntrySpec);
    ASSERT_TRUE(R0) << B.Name << ": " << R0.diag().str();

    std::string EditedSrc = std::string(B.Source) + "\nmain.\n";
    TermArena Arena1;
    std::unique_ptr<CompiledProgram> P1 =
        compileOrDie(EditedSrc, Syms, Arena1);
    ASSERT_NE(P1, nullptr) << B.Name;

    Result<AnalysisResult> RInc = S.reanalyze(*P1);
    ASSERT_TRUE(RInc) << B.Name << ": " << RInc.diag().str();

    AnalysisSession Scratch(*P1);
    Result<AnalysisResult> RScr = Scratch.analyze(B.EntrySpec);
    ASSERT_TRUE(RScr) << B.Name << ": " << RScr.diag().str();
    EXPECT_EQ(fingerprint(*RScr, Syms), fingerprint(*RInc, Syms)) << B.Name;

    // The first query ran cold on a fresh store, so the store's replay
    // counter is the reanalyze's own; whatever did not replay executed.
    uint64_t Replayed = S.store()->stats().ReplayedActivations;
    ASSERT_LE(Replayed, RInc->Counters.ActivationRuns) << B.Name;
    if (RInc->Counters.ActivationRuns - Replayed <
        RScr->Counters.ActivationRuns)
      ++StrictlyFewer;
    ++Checked;
  }
  EXPECT_EQ(Checked, 11);
  // The acceptance bar: strictly fewer executed activations than the
  // scratch run of the edited program on at least 9 of the 11.
  EXPECT_GE(StrictlyFewer, 9);
}

TEST(IncrementalTest, UneditedRecompileExecutesNothing) {
  // Recompiling the identical source against the same symbol table diffs
  // to an empty edit set: nothing is invalidated, and the store answers
  // the re-query from its result cache without draining at all.
  SymbolTable Syms;
  TermArena A0, A1;
  const std::string Src =
      "app([], L, L). app([H|T], L, [H|R]) :- app(T, L, R).\n"
      "nrev([], []). nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).\n";
  std::unique_ptr<CompiledProgram> P0 = compileOrDie(Src, Syms, A0);
  std::unique_ptr<CompiledProgram> P1 = compileOrDie(Src, Syms, A1);
  ASSERT_NE(P0, nullptr);
  ASSERT_NE(P1, nullptr);

  AnalysisSession S(*P0);
  Result<AnalysisResult> R0 = S.analyze("nrev(glist, var)");
  ASSERT_TRUE(R0) << R0.diag().str();

  Result<AnalysisResult> R1 = S.reanalyze(*P1);
  ASSERT_TRUE(R1) << R1.diag().str();
  EXPECT_EQ(fingerprint(*R0, Syms), fingerprint(*R1, Syms));
  ASSERT_NE(S.store(), nullptr);
  const AnalysisStore::Stats &St = S.store()->stats();
  EXPECT_EQ(St.ExecutedRuns, 0u);
  EXPECT_EQ(St.CacheHits, 1u);
  EXPECT_EQ(St.InvalidatedRoots, 0u);
  EXPECT_EQ(St.InvalidatedEntries, 0u);
}

TEST(IncrementalTest, ChainedEditsMatchScratchEachStep) {
  // A chain of reanalyze() calls, each recording for the next: every step
  // must match a scratch analysis of that step's program.
  SymbolTable Syms;
  std::vector<std::unique_ptr<TermArena>> Arenas;
  std::vector<std::unique_ptr<CompiledProgram>> Programs;
  auto compileKeep = [&](const std::string &Src) -> CompiledProgram * {
    Arenas.push_back(std::make_unique<TermArena>());
    std::unique_ptr<CompiledProgram> P =
        compileOrDie(Src, Syms, *Arenas.back());
    if (!P)
      return nullptr;
    Programs.push_back(std::move(P));
    return Programs.back().get();
  };

  const std::string Base = "len([], 0). len([_|T], N) :- len(T, M), N is M + 1.\n"
                           "dup([], []). dup([H|T], [H, H|R]) :- dup(T, R).\n"
                           "main(L, N) :- dup(L, D), len(D, N).\n";
  CompiledProgram *P0 = compileKeep(Base);
  ASSERT_NE(P0, nullptr);
  AnalysisSession S(*P0);
  Result<AnalysisResult> R = S.analyze("main(glist, var)");
  ASSERT_TRUE(R) << R.diag().str();

  const std::string Edits[] = {
      // Step 1: extra dup clause (reachable predicate changes).
      Base + "dup([X], [X]).\n",
      // Step 2: on top of step 1, len gains a shortcut clause.
      Base + "dup([X], [X]).\nlen([_], 1).\n",
      // Step 3: main itself changes.
      Base + "dup([X], [X]).\nlen([_], 1).\nmain(L, N) :- len(L, N).\n",
  };
  for (const std::string &Src : Edits) {
    CompiledProgram *P = compileKeep(Src);
    ASSERT_NE(P, nullptr);
    Result<AnalysisResult> RInc = S.reanalyze(*P);
    ASSERT_TRUE(RInc) << RInc.diag().str();

    AnalysisSession Scratch(*P);
    Result<AnalysisResult> RScr = Scratch.analyze("main(glist, var)");
    ASSERT_TRUE(RScr) << RScr.diag().str();
    EXPECT_EQ(fingerprint(*RScr, Syms), fingerprint(*RInc, Syms)) << Src;
  }
}

TEST(IncrementalTest, KeptTraceWithChangedMemoReadIsNotReplayed) {
  // p/2's first run fails its recursive clause (its own summary is still
  // empty); its second run memo-reads q/2, which the edit of r/2 changes
  // without touching p's or q's code. That run enters no edited code, so
  // invalidation keeps its trace, and only the memo summary it recorded
  // shows replay that it is stale. Replaying it anyway costs the drain an
  // extra run, which the report's iteration and instruction counts show.
  SymbolTable Syms;
  TermArena A0, A1;
  const std::string Src = "main :- q(a, W), p(a, Y).\n"
                          "q(X, Y) :- r(X, Y).\n"
                          "p(X, Y) :- p(X, Z), q(Z, Y).\n"
                          "p(X, X).\n";
  std::unique_ptr<CompiledProgram> P0 =
      compileOrDie(Src + "r(a, b).\n", Syms, A0);
  std::unique_ptr<CompiledProgram> P1 =
      compileOrDie(Src + "r(a, 1).\n", Syms, A1);
  ASSERT_NE(P0, nullptr);
  ASSERT_NE(P1, nullptr);

  AnalysisSession S(*P0);
  Result<AnalysisResult> R0 = S.analyze("main");
  ASSERT_TRUE(R0) << R0.diag().str();
  Result<AnalysisResult> RInc = S.reanalyze(*P1);
  ASSERT_TRUE(RInc) << RInc.diag().str();

  AnalysisSession Scratch(*P1);
  Result<AnalysisResult> RScr = Scratch.analyze("main");
  ASSERT_TRUE(RScr) << RScr.diag().str();
  EXPECT_EQ(fingerprint(*RScr, Syms), fingerprint(*RInc, Syms));
  EXPECT_NE(fingerprint(*R0, Syms), fingerprint(*RInc, Syms));

  // The drain ran warm (p's trace survived invalidation) and replayed
  // nothing.
  ASSERT_NE(S.store(), nullptr);
  const AnalysisStore::Stats &St = S.store()->stats();
  EXPECT_EQ(St.WarmQueries, 1u);
  EXPECT_EQ(St.ReplayedRuns, 0u);
}

TEST(IncrementalTest, DefaultSessionReanalyzesWarm) {
  // A default-options session answers analyze() through its store, so
  // its first reanalyze() finds the journal of that query: after an edit
  // of q/1 the re-query runs warm and replays p/1's queued re-run, whose
  // trace entered no edited code. A repeated analyze() is a cache hit.
  SymbolTable Syms;
  TermArena Arena;
  std::unique_ptr<CompiledProgram> P = compileOrDie(
      "q(X) :- p(X).\np(a).\np(f(Y)) :- p(Y).\n", Syms, Arena);
  ASSERT_NE(P, nullptr);
  AnalysisSession S(*P);
  Result<AnalysisResult> R0 = S.analyze("q(var)");
  ASSERT_TRUE(R0) << R0.diag().str();
  ASSERT_NE(S.store(), nullptr);
  const AnalysisStore::Stats &St = S.store()->stats();
  EXPECT_EQ(St.ColdQueries, 1u);

  Result<AnalysisResult> R1 = S.reanalyze({PredSig{"q", 1}});
  ASSERT_TRUE(R1) << R1.diag().str();
  EXPECT_EQ(fingerprint(*R0, Syms), fingerprint(*R1, Syms));
  EXPECT_EQ(St.WarmQueries, 1u);
  EXPECT_GT(St.ReplayedRuns, 0u);

  Result<AnalysisResult> R2 = S.analyze("q(var)");
  ASSERT_TRUE(R2) << R2.diag().str();
  EXPECT_EQ(St.CacheHits, 1u);
  EXPECT_EQ(fingerprint(*R0, Syms), fingerprint(*R2, Syms));
}

TEST(IncrementalErrorTest, ReanalyzeBeforeAnalyzeIsAnError) {
  SymbolTable Syms;
  TermArena Arena;
  Result<CompiledProgram> P = compileSource("p(a).\n", Syms, Arena);
  ASSERT_TRUE(P) << P.diag().str();
  AnalysisSession S(*P);
  Result<AnalysisResult> R = S.reanalyze({PredSig{"p", 1}});
  EXPECT_FALSE(R);
}

TEST(IncrementalTest, RandomEditSequencesMatchScratch) {
  // >= 30 random clause-level edit sequences: generate a program, chain
  // three mutations through one store-backed session, and require
  // byte-identity with a scratch session at every step. Reuse shows up as
  // result-cache hits (an edit the entry's projection does not name) or
  // replayed runs.
  int Sequences = 0;
  uint64_t TotalReused = 0;
  for (unsigned Seed = 0; Seed != 12; ++Seed) {
    SymbolTable Syms;
    std::vector<std::unique_ptr<TermArena>> Arenas;
    std::vector<std::unique_ptr<CompiledProgram>> Programs;

    std::string Src = testgen::generateProgram(Seed);
    Arenas.push_back(std::make_unique<TermArena>());
    std::unique_ptr<CompiledProgram> P0 =
        compileOrDie(Src, Syms, *Arenas.back());
    ASSERT_NE(P0, nullptr);
    Programs.push_back(std::move(P0));

    // Entry: p0 at whatever arity this seed generated, all-any arguments.
    int Arity = -1;
    const Symbol P0Sym = Syms.lookup("p0");
    for (int32_t I = 0; I != Programs.back()->Module->numPredicates(); ++I) {
      const PredicateInfo &PI = Programs.back()->Module->predicate(I);
      if (PI.Name == P0Sym)
        Arity = PI.Arity;
    }
    ASSERT_GE(Arity, 1) << "seed " << Seed;
    const std::string Entry = "p0/" + std::to_string(Arity);

    AnalysisSession S(*Programs.back());
    Result<AnalysisResult> R = S.analyze(Entry);
    ASSERT_TRUE(R) << "seed " << Seed << ": " << R.diag().str();

    for (unsigned Step = 0; Step != 3; ++Step, ++Sequences) {
      testgen::ProgramMutation Mut =
          testgen::mutateProgram(Src, Seed * 31 + Step + 1);
      Src = Mut.Source;
      Arenas.push_back(std::make_unique<TermArena>());
      std::unique_ptr<CompiledProgram> P =
          compileOrDie(Src, Syms, *Arenas.back());
      ASSERT_NE(P, nullptr) << "seed " << Seed << " step " << Step;
      Programs.push_back(std::move(P));

      Result<AnalysisResult> RInc = S.reanalyze(*Programs.back());
      ASSERT_TRUE(RInc) << "seed " << Seed << " step " << Step << " (edit "
                        << Mut.Pred << "/" << Mut.Arity
                        << "): " << RInc.diag().str();

      AnalysisSession Scratch(*Programs.back());
      Result<AnalysisResult> RScr = Scratch.analyze(Entry);
      ASSERT_TRUE(RScr) << "seed " << Seed << " step " << Step << ": "
                        << RScr.diag().str();
      EXPECT_EQ(fingerprint(*RScr, Syms), fingerprint(*RInc, Syms))
          << "seed " << Seed << " step " << Step << " (edit " << Mut.Pred
          << "/" << Mut.Arity << ")\n--- source ---\n"
          << Src;
    }
    ASSERT_NE(S.store(), nullptr);
    const AnalysisStore::Stats &St = S.store()->stats();
    TotalReused += St.CacheHits + St.ReplayedRuns;
  }
  EXPECT_GE(Sequences, 30);
  EXPECT_GT(TotalReused, 0u);
}

TEST(IncrementalTest, RootsSurviveTheEditsTheirProjectionsDoNotName) {
  // Every defined predicate of a random program is a root of one store,
  // and three chained edits decide for all of them at once which survive.
  // After each edit every root must read what a scratch session of the
  // edited program reads, so a root kept although its drain called an
  // edited predicate shows as a stale cached answer; and some roots must
  // survive, answered from the store's result cache.
  int Roots = 0;
  uint64_t SurvivorHits = 0;
  for (unsigned Seed = 0; Seed != 12; ++Seed) {
    SymbolTable Syms;
    std::vector<std::unique_ptr<TermArena>> Arenas;
    std::vector<std::unique_ptr<CompiledProgram>> Programs;
    auto compileKeep = [&](const std::string &Src) -> CompiledProgram * {
      Arenas.push_back(std::make_unique<TermArena>());
      std::unique_ptr<CompiledProgram> P =
          compileOrDie(Src, Syms, *Arenas.back());
      if (!P)
        return nullptr;
      Programs.push_back(std::move(P));
      return Programs.back().get();
    };

    std::string Src = testgen::generateProgram(Seed);
    CompiledProgram *P = compileKeep(Src);
    ASSERT_NE(P, nullptr) << "seed " << Seed;
    std::vector<std::string> Specs;
    for (int32_t I = 0; I != P->Module->numPredicates(); ++I) {
      const PredicateInfo &PI = P->Module->predicate(I);
      if (!PI.Clauses.empty())
        Specs.push_back(std::string(Syms.name(PI.Name)) + "/" +
                        std::to_string(PI.Arity));
    }
    AnalysisSession S(*P);
    for (const std::string &Spec : Specs)
      ASSERT_TRUE(S.analyze(Spec)) << "seed " << Seed << " " << Spec;
    ASSERT_NE(S.store(), nullptr);
    const AnalysisStore::Stats &St = S.store()->stats();

    for (unsigned Step = 0; Step != 3; ++Step) {
      testgen::ProgramMutation Mut =
          testgen::mutateProgram(Src, Seed * 31 + Step + 1);
      Src = Mut.Source;
      P = compileKeep(Src);
      ASSERT_NE(P, nullptr) << "seed " << Seed << " step " << Step;
      const uint64_t Hits0 = St.CacheHits;
      // Re-answers the last root queried, Specs.back().
      Result<AnalysisResult> RInc = S.reanalyze(*P);
      ASSERT_TRUE(RInc) << "seed " << Seed << " step " << Step << ": "
                        << RInc.diag().str();
      AnalysisSession Scratch(*P);
      for (const std::string &Spec : Specs) {
        SCOPED_TRACE("seed " + std::to_string(Seed) + " step " +
                     std::to_string(Step) + " (edit " + Mut.Pred + "/" +
                     std::to_string(Mut.Arity) + ") root " + Spec);
        Result<AnalysisResult> R = S.analyze(Spec);
        ASSERT_TRUE(R) << R.diag().str();
        Result<AnalysisResult> RScr = Scratch.analyze(Spec);
        ASSERT_TRUE(RScr) << RScr.diag().str();
        EXPECT_EQ(fingerprint(*RScr, Syms), fingerprint(*R, Syms))
            << "--- source ---\n"
            << Src;
        ++Roots;
      }
      // Less the loop's re-query of the root reanalyze() just answered,
      // which hits the cache whether that root survived or not.
      SurvivorHits += St.CacheHits - Hits0 - 1;
    }
  }
  EXPECT_GE(Roots, 100);
  EXPECT_GT(SurvivorHits, 0u);
  std::printf("%d roots checked, %llu survivors answered from the cache\n",
              Roots, static_cast<unsigned long long>(SurvivorHits));
}

/// The first predicate of \p P other than main/0 that has clauses, by
/// predicate id (e.g. zebra/2): the Table 1 programs' worked predicate.
std::optional<PredSig> workPredicate(const CompiledProgram &P) {
  const CodeModule &M = *P.Module;
  for (int32_t I = 0; I != M.numPredicates(); ++I) {
    const PredicateInfo &PI = M.predicate(I);
    std::string Name(M.symbols().name(PI.Name));
    if (!PI.Clauses.empty() && !(Name == "main" && PI.Arity == 0))
      return PredSig{Name, PI.Arity};
  }
  return std::nullopt;
}

TEST(IncrementalTest, TouchEditOfTheWorkedPredicateMatchesColdEverywhere) {
  // The service script's round on every Table 1 program in every domain:
  // query main, then the worked predicate W (e.g. zebra/2), touch-edit W,
  // which re-queries W, then re-query main. Both re-queries are the cold
  // reports. main's run explores W inline, so it executes, and its other
  // inline explorations replay as frames. W's own root run is banked as
  // well and must not stand in for main's exploration of W: a run counts
  // the Halt its root executes and a frame does not.
  uint64_t Replayed = 0;
  for (const char *Domain : {"modes", "pos", "det"}) {
    for (const BenchmarkProgram &B : benchmarkPrograms()) {
      SCOPED_TRACE(std::string(B.Name) + " under " + Domain);
      SymbolTable Syms;
      TermArena Arena;
      std::unique_ptr<CompiledProgram> P =
          compileOrDie(std::string(B.Source), Syms, Arena);
      ASSERT_NE(P, nullptr);
      std::optional<PredSig> Work = workPredicate(*P);
      ASSERT_TRUE(Work);
      const std::string WorkSpec =
          Work->Name + "/" + std::to_string(Work->Arity);
      AnalyzerOptions O;
      O.DomainName = Domain;
      AnalysisSession ColdWork(*P, O);
      Result<AnalysisResult> RW = ColdWork.analyze(WorkSpec);
      ASSERT_TRUE(RW) << RW.diag().str();

      AnalysisSession S(*P, O);
      Result<AnalysisResult> R0 = S.analyze(B.EntrySpec);
      ASSERT_TRUE(R0) << R0.diag().str();
      ASSERT_TRUE(S.analyze(WorkSpec));
      Result<AnalysisResult> R1 = S.reanalyze({*Work}, WorkSpec);
      ASSERT_TRUE(R1) << R1.diag().str();
      EXPECT_EQ(fingerprint(*RW, Syms), fingerprint(*R1, Syms));
      Result<AnalysisResult> R2 = S.analyze(B.EntrySpec);
      ASSERT_TRUE(R2) << R2.diag().str();
      EXPECT_EQ(fingerprint(*R0, Syms), fingerprint(*R2, Syms));
      Replayed += S.store()->stats().ReplayedActivations;
    }
  }
  EXPECT_GT(Replayed, 0u);
}

TEST(IncrementalTest, CorpusRequeryReplaysTheCleanFramesOfTheDriverRun) {
  // drive/1 calls every predicate of a linked 1.2k-clause corpus, so its
  // first run explores nearly all of them inline, lib0/1 among them. The
  // service script's round: query drive/1 and lib0/1, touch-edit lib0/1
  // (which re-queries it), re-query drive/1. drive's run entered lib0/1,
  // so it executes, but its inline explorations that ran no lib0/1 code
  // replay as frames. Two rounds in a row: the second replays the frames
  // the first spliced into the journal it recorded.
  testgen::CorpusOptions CO;
  CO.Clauses = 1200;
  const testgen::Corpus C = testgen::generateCorpus(1, CO);
  SymbolTable Syms;
  TermArena Arena;
  Result<CompiledProgram> Lib = compileSource(C.Library, Syms, Arena);
  ASSERT_TRUE(Lib) << Lib.diag().str();
  Result<CompiledProgram> User = compileSource(C.User, Syms, Arena);
  ASSERT_TRUE(User) << User.diag().str();
  Result<LinkedProgram> L =
      linkPrograms({{&*Lib, "library"}, {&*User, "user"}});
  ASSERT_TRUE(L) << L.diag().str();
  for (const char *Domain : {"modes", "det"}) {
    SCOPED_TRACE(Domain);
    AnalyzerOptions O;
    O.DomainName = Domain;
    AnalysisSession Cold(L->Program, O);
    Result<AnalysisResult> RC = Cold.analyze("drive/1");
    ASSERT_TRUE(RC) << RC.diag().str();
    AnalysisSession ColdWork(L->Program, O);
    Result<AnalysisResult> RCW = ColdWork.analyze("lib0/1");
    ASSERT_TRUE(RCW) << RCW.diag().str();

    AnalysisSession S(L->Program, O);
    ASSERT_TRUE(S.analyze("drive/1"));
    ASSERT_TRUE(S.analyze("lib0/1"));
    const AnalysisStore::Stats &St = S.store()->stats();
    for (int Round = 1; Round <= 2; ++Round) {
      SCOPED_TRACE("round " + std::to_string(Round));
      Result<AnalysisResult> RW = S.reanalyze({PredSig{"lib0", 1}}, "lib0/1");
      ASSERT_TRUE(RW) << RW.diag().str();
      EXPECT_EQ(fingerprint(*RW, Syms), fingerprint(*RCW, Syms));
      const uint64_t Executed0 = St.ExecutedActivations;
      Result<AnalysisResult> R = S.analyze("drive/1");
      ASSERT_TRUE(R) << R.diag().str();
      EXPECT_EQ(fingerprint(*R, Syms), fingerprint(*RC, Syms));
      // Cold, the query explores hundreds of clause lists.
      EXPECT_GT(R->Counters.ActivationRuns, 400u);
      EXPECT_LE(St.ExecutedActivations - Executed0, 40u);
    }
  }
}

TEST(IncrementalTest, FrameThatReadAChangedSummaryExecutes) {
  // main's run enters e/1, so an edit of e/1 leaves it to execute; f/1's
  // frame inside it only memo-reads e/1 and stays banked. When the edit
  // keeps e's summary, the frame replays (with g/2's inside it); when the
  // edit changes it, validation sees the summary f's frame read and the
  // frame executes, exploring g/2 at a calling pattern the old run never
  // had. Both re-queries are the cold report of their program.
  SymbolTable Syms;
  TermArena A0, A1, A2;
  const std::string Src = "main :- e(_), f(_).\n"
                          "f(Y) :- e(Z), g(Z, Y).\n"
                          "g(Z, Z).\n";
  std::unique_ptr<CompiledProgram> P0 =
      compileOrDie(Src + "e(a).\n", Syms, A0);
  std::unique_ptr<CompiledProgram> Same =
      compileOrDie(Src + "e(a).\ne(a).\n", Syms, A1);
  std::unique_ptr<CompiledProgram> Changed =
      compileOrDie(Src + "e(1).\n", Syms, A2);
  ASSERT_NE(P0, nullptr);
  ASSERT_NE(Same, nullptr);
  ASSERT_NE(Changed, nullptr);

  for (const CompiledProgram *Edited : {Same.get(), Changed.get()}) {
    const bool Keeps = Edited == Same.get();
    SCOPED_TRACE(Keeps ? "e's summary kept" : "e's summary changed");
    AnalysisSession S(*P0);
    ASSERT_TRUE(S.analyze("main"));
    Result<AnalysisResult> RInc = S.reanalyze(*Edited);
    ASSERT_TRUE(RInc) << RInc.diag().str();
    AnalysisSession Scratch(*Edited);
    Result<AnalysisResult> RScr = Scratch.analyze("main");
    ASSERT_TRUE(RScr) << RScr.diag().str();
    EXPECT_EQ(fingerprint(*RScr, Syms), fingerprint(*RInc, Syms));

    // main, e, f and g each explore once; f and g replay only when the
    // summary f's frame read still holds.
    ASSERT_EQ(RInc->Counters.ActivationRuns, 4u);
    const AnalysisStore::Stats &St = S.store()->stats();
    EXPECT_EQ(St.WarmQueries, 1u);
    EXPECT_EQ(St.ReplayedRuns, 0u);
    EXPECT_EQ(St.ReplayedActivations, Keeps ? 2u : 0u);
    EXPECT_EQ(St.ExecutedActivations, Keeps ? 2u : 4u);
  }
}

TEST(IncrementalTest, ChainedTouchEditsKeepStoreBytesFlat) {
  // An invalidated root keeps the traces that ran no edited code, and its
  // re-query reuses the root's slot, so the new journal replaces the
  // filtered one: a long chain of edits must not grow the store.
  const BenchmarkProgram *B = findBenchmark("zebra");
  ASSERT_NE(B, nullptr);
  SymbolTable Syms;
  TermArena Arena;
  std::unique_ptr<CompiledProgram> P =
      compileOrDie(std::string(B->Source), Syms, Arena);
  ASSERT_NE(P, nullptr);

  AnalysisSession S(*P);
  Result<AnalysisResult> R0 = S.analyze(B->EntrySpec);
  ASSERT_TRUE(R0) << R0.diag().str();
  ASSERT_NE(S.store(), nullptr);
  const uint64_t Bytes = S.store()->bytesUsed();
  const std::string Want = fingerprint(*R0, Syms);
  for (int Step = 0; Step != 200; ++Step) {
    Result<AnalysisResult> R = S.reanalyze({PredSig{"main", 0}});
    ASSERT_TRUE(R) << "step " << Step << ": " << R.diag().str();
    ASSERT_EQ(Want, fingerprint(*R, Syms)) << "step " << Step;
    ASSERT_EQ(S.store()->bytesUsed(), Bytes) << "step " << Step;
  }
  EXPECT_GT(S.store()->stats().ReplayedRuns, 0u);
}

} // namespace
