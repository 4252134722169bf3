//===- tests/ServerTest.cpp - Concurrent analysis service tests -----------===//
//
// The AnalysisServer concurrency contracts, made deterministic with the
// lockCurrentStoreForTest hook: holding a slot's writer lock freezes every
// drain against that store, so the tests can stage precise interleavings
// (identical queries queued behind a frozen store, a writer blocked while
// a sibling store answers) instead of hoping for them.
//
// The correctness baseline throughout is single-client replay: a fresh
// one-worker server fed the same commands. Byte-equality against it is
// the same gate the CI server-hammer job runs on the analyze_server
// binary.
//
//===----------------------------------------------------------------------===//

#include "analyzer/Server.h"

#include "analyzer/Analyzer.h"
#include "analyzer/Store.h"
#include "compiler/ProgramCompiler.h"
#include "programs/Benchmarks.h"

#include "RandomProgramGen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace awam;

namespace {

AnalysisServer::Config baseConfig(int Workers, uint64_t Cap = 0) {
  AnalysisServer::Config C;
  C.Workers = Workers;
  C.MaxStoreBytes = Cap;
  C.LoadSource = [](const std::string &Spec, std::string &Source,
                    std::string &Err) {
    if (Spec.rfind("bench:", 0) == 0) {
      const BenchmarkProgram *B = findBenchmark(Spec.substr(6));
      if (!B) {
        Err = "unknown benchmark '" + Spec.substr(6) + "'\n";
        return false;
      }
      Source = B->Source;
      return true;
    }
    Err = "cannot open " + Spec + "\n";
    return false;
  };
  return C;
}

/// Single-client reference replay: the response stream of \p Script on a
/// fresh one-worker server.
std::vector<AnalysisServer::Response>
referenceReplay(const std::vector<std::string> &Script) {
  AnalysisServer Ref(baseConfig(1));
  int C = Ref.openClient();
  std::vector<AnalysisServer::Response> Out;
  for (const std::string &Line : Script)
    Out.push_back(Ref.execute(C, Line));
  return Out;
}

template <typename Pred> bool waitFor(Pred P, int Ms = 30000) {
  auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(Ms);
  while (!P()) {
    if (std::chrono::steady_clock::now() > Deadline)
      return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

constexpr const char *kQsortEntry = "entry qsort(glist, var, var)";
constexpr const char *kPartEntry = "entry partition(glist, g, var, var)";

TEST(ServerTest, RepeatQueriesRideTheResponseCache) {
  AnalysisServer S(baseConfig(2));
  int C = S.openClient();
  S.execute(C, "load bench:qsort");
  AnalysisServer::Response First = S.execute(C, kQsortEntry);
  ASSERT_TRUE(First.Err.empty()) << First.Err;
  ASSERT_FALSE(First.Out.empty());
  AnalysisServer::Response Again = S.execute(C, kQsortEntry);
  EXPECT_EQ(First.Out, Again.Out);
  AnalysisServer::Stats T = S.stats();
  EXPECT_EQ(T.Queries, 2u);
  EXPECT_EQ(T.CacheHits, 1u);
  EXPECT_EQ(T.Drains, 1u);
}

TEST(ServerTest, DuplicateInFlightQueriesCoalesceToOneDrain) {
  std::vector<AnalysisServer::Response> Ref =
      referenceReplay({"load bench:qsort", kQsortEntry});
  const std::string &Expected = Ref[1].Out;

  AnalysisServer S(baseConfig(4));
  int Locker = S.openClient();
  constexpr int K = 3;
  int Cs[K];
  S.execute(Locker, "load bench:qsort");
  for (int I = 0; I != K; ++I) {
    Cs[I] = S.openClient();
    S.execute(Cs[I], "load bench:qsort");
  }

  // Freeze the store, then ask the same not-yet-cached question K times:
  // every asker misses the response cache and queues on the writer lock.
  // Once it is released, the first drains and caches its answer before
  // unlocking; the other K-1 find that answer on their second look.
  std::unique_lock<std::shared_mutex> Hold =
      S.lockCurrentStoreForTest(Locker);
  ASSERT_TRUE(Hold.owns_lock());

  std::mutex M;
  std::vector<std::string> Outs;
  std::atomic<int> Done{0};
  for (int I = 0; I != K; ++I)
    S.submit(Cs[I], kQsortEntry, [&](const AnalysisServer::Response &R) {
      std::lock_guard<std::mutex> L(M);
      Outs.push_back(R.Out);
      EXPECT_TRUE(R.Err.empty()) << R.Err;
      ++Done;
    });

  // A query is counted after its first cache lookup, so at K every asker
  // has missed the cache and is at (or on its way to) the held lock.
  ASSERT_TRUE(waitFor([&] { return S.stats().Queries == K; }))
      << "the queries never got past their first cache lookup";
  EXPECT_EQ(S.stats().Drains, 0u) << "a drain ran against a held store";
  EXPECT_EQ(Done.load(), 0) << "a query completed against a held store";

  Hold.unlock();
  ASSERT_TRUE(waitFor([&] { return Done.load() == K; }));
  for (const std::string &O : Outs)
    EXPECT_EQ(Expected, O);
  AnalysisServer::Stats T = S.stats();
  EXPECT_EQ(T.Drains, 1u) << "identical queries must cost one drain";
  EXPECT_EQ(T.Coalesced, K - 1u)
      << "the queued queries were not answered from the first one's drain";
  EXPECT_EQ(T.CacheHits, 0u);
}

TEST(ServerTest, WritersSerializePerStoreAndStoresRunConcurrently) {
  std::vector<AnalysisServer::Response> QRef =
      referenceReplay({"load bench:qsort", kQsortEntry});
  std::vector<AnalysisServer::Response> NRef =
      referenceReplay({"load bench:nreverse", "entry nreverse(glist, var)"});

  AnalysisServer S(baseConfig(4));
  int CQ = S.openClient(), CN = S.openClient();
  S.execute(CQ, "load bench:qsort");
  S.execute(CN, "load bench:nreverse");

  std::unique_lock<std::shared_mutex> Hold = S.lockCurrentStoreForTest(CQ);
  ASSERT_TRUE(Hold.owns_lock());

  // A writer against the held store must wait ...
  std::atomic<int> QDone{0};
  std::string QOut;
  S.submit(CQ, kQsortEntry, [&](const AnalysisServer::Response &R) {
    QOut = R.Out;
    ++QDone;
  });
  // ... while a writer against a *different* store proceeds concurrently.
  std::atomic<int> NDone{0};
  std::string NOut;
  S.submit(CN, "entry nreverse(glist, var)",
           [&](const AnalysisServer::Response &R) {
             NOut = R.Out;
             ++NDone;
           });
  ASSERT_TRUE(waitFor([&] { return NDone.load() == 1; }))
      << "a sibling store was blocked by an unrelated writer lock";
  EXPECT_EQ(NRef[1].Out, NOut);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(QDone.load(), 0) << "a drain ran against a held store";

  Hold.unlock();
  ASSERT_TRUE(waitFor([&] { return QDone.load() == 1; }));
  EXPECT_EQ(QRef[1].Out, QOut);
}

TEST(ServerTest, EditsReanswerTheEditingClientsOwnEntry) {
  // Two clients share one store but asked different questions; each edit
  // must re-answer the *editing client's* last entry, not whichever query
  // happened to touch the store last.
  std::vector<AnalysisServer::Response> Ref = referenceReplay(
      {"load bench:qsort", kQsortEntry, kPartEntry, "edit partition/4"});

  AnalysisServer S(baseConfig(2));
  int C0 = S.openClient(), C1 = S.openClient();
  S.execute(C0, "load bench:qsort");
  S.execute(C1, "load bench:qsort");
  AnalysisServer::Response R0 = S.execute(C0, kQsortEntry);
  AnalysisServer::Response R1 = S.execute(C1, kPartEntry);
  ASSERT_TRUE(R0.Err.empty() && R1.Err.empty());

  AnalysisServer::Response E0 = S.execute(C0, "edit partition/4");
  AnalysisServer::Response E1 = S.execute(C1, "edit partition/4");
  // Edits are touches: re-answering an entry yields that entry's bytes.
  EXPECT_EQ(R0.Out, E0.Out);
  EXPECT_EQ(R1.Out, E1.Out);
  // And the reference replay agrees on what an edit after kPartEntry says.
  EXPECT_EQ(Ref[3].Out, E1.Out);
}

TEST(ServerTest, EvictedStoreRewarmsByteIdentically) {
  AnalysisServer S(baseConfig(1, /*Cap=*/1));
  int C = S.openClient();
  S.execute(C, "load bench:qsort");
  AnalysisServer::Response First = S.execute(C, kQsortEntry);
  ASSERT_TRUE(First.Err.empty()) << First.Err;

  // Any byte lands over the 1-byte cap, so touching nreverse evicts the
  // idle qsort store (and its memoized responses).
  S.execute(C, "load bench:nreverse");
  S.execute(C, "entry nreverse(glist, var)");
  AnalysisServer::Stats T = S.stats();
  ASSERT_GE(T.Evictions, 1u) << "the byte cap never evicted anything";

  // Touching qsort again re-warms it from cold — same response bytes.
  S.execute(C, "load bench:qsort");
  AnalysisServer::Response Again = S.execute(C, kQsortEntry);
  EXPECT_EQ(First.Out, Again.Out);
  T = S.stats();
  EXPECT_GE(T.Rewarms, 1u);
  EXPECT_EQ(S.stats().CacheHits, 0u)
      << "eviction must drop the response cache with the store";

  // An edit right after re-warming routes through the store's explicit
  // re-entry path (the store is cold; nothing to invalidate).
  S.execute(C, "load bench:qsort");
  AnalysisServer::Response E = S.execute(C, "edit partition/4");
  EXPECT_EQ(First.Out, E.Out);
}

TEST(ServerTest, ExportImportWarmStartsAnEvictedStoreByteIdentically) {
  // Round trip through the bundle registry: answer, export, lose the
  // store to the byte cap, re-warm it cold, import, re-answer. The
  // imported traces warm-start the drain; the bytes must not move.
  AnalysisServer S(baseConfig(1, /*Cap=*/1));
  int C = S.openClient();
  S.execute(C, "load bench:qsort");
  AnalysisServer::Response First = S.execute(C, kQsortEntry);
  ASSERT_TRUE(First.Err.empty()) << First.Err;

  AnalysisServer::Response Ex = S.execute(C, "export warm");
  EXPECT_NE(Ex.Err.find("exported "), std::string::npos) << Ex.Err;
  EXPECT_NE(Ex.Err.find("bundle 'warm'"), std::string::npos) << Ex.Err;
  AnalysisServer::Stats T = S.stats();
  EXPECT_EQ(T.Bundles, 1u);
  EXPECT_GT(T.BundleBytes, 0u);

  // Touching nreverse pushes the idle qsort store over the 1-byte cap.
  S.execute(C, "load bench:nreverse");
  S.execute(C, "entry nreverse(glist, var)");
  ASSERT_GE(S.stats().Evictions, 1u);

  S.execute(C, "load bench:qsort");
  AnalysisServer::Response Im = S.execute(C, "import warm");
  EXPECT_EQ(Im.Err.rfind("imported ", 0), 0u) << Im.Err;
  EXPECT_EQ(Im.Err.rfind("imported 0/", 0), std::string::npos)
      << "nothing banked from a bundle of the same module: " << Im.Err;
  EXPECT_NE(Im.Err.find("(0 stale, 0 unresolved dropped)"),
            std::string::npos)
      << Im.Err;

  AnalysisServer::Response Again = S.execute(C, kQsortEntry);
  EXPECT_EQ(First.Out, Again.Out);
}

TEST(ServerTest, ImportRejectsUnknownTagsAndForeignDomains) {
  AnalysisServer S(baseConfig(1));
  int C = S.openClient();
  S.execute(C, "load bench:qsort");
  S.execute(C, kQsortEntry);

  AnalysisServer::Response Missing = S.execute(C, "import nosuch");
  EXPECT_NE(Missing.Err.find("unknown bundle 'nosuch'"), std::string::npos)
      << Missing.Err;

  ASSERT_TRUE(S.execute(C, "export modesbundle").Out.empty());
  // Same module, pos domain: a different store, and a bundle recorded
  // under "modes" must be refused with the store-level mismatch message.
  S.execute(C, "domain pos");
  AnalysisServer::Response Im = S.execute(C, "import modesbundle");
  EXPECT_NE(Im.Err.find("domain mismatch"), std::string::npos) << Im.Err;
}

TEST(ServerTest, LinkedLoadSharesTheMonolithicStore) {
  // `load main lib` compiles the units separately and links them; the
  // linked fingerprint equals the monolithic compile's, so the slot (and
  // its warm response cache) is shared with `load mono`.
  static const char *kLib = "app([], Ys, Ys).\n"
                            "app([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).\n";
  static const char *kUser = "dbl(Xs, Ys) :- app(Xs, Xs, Ys).\n";
  AnalysisServer::Config Cfg = baseConfig(1);
  Cfg.LoadSource = [](const std::string &Spec, std::string &Source,
                      std::string &Err) {
    if (Spec == "src:lib")
      Source = kLib;
    else if (Spec == "src:user")
      Source = kUser;
    else if (Spec == "src:mono")
      Source = std::string(kLib) + kUser;
    else {
      Err = "unknown source '" + Spec + "'\n";
      return false;
    }
    return true;
  };
  AnalysisServer S(Cfg);
  int C = S.openClient();
  AnalysisServer::Response Linked = S.execute(C, "load src:user src:lib");
  EXPECT_NE(Linked.Err.find("loaded src:user src:lib"), std::string::npos)
      << Linked.Err;
  AnalysisServer::Response First = S.execute(C, "entry dbl(glist, var)");
  ASSERT_TRUE(First.Err.empty()) << First.Err;

  AnalysisServer::Response Mono = S.execute(C, "load src:mono");
  EXPECT_NE(Mono.Err.find("reusing warm store"), std::string::npos)
      << "linked and monolithic fingerprints diverged: " << Mono.Err;
  AnalysisServer::Response Again = S.execute(C, "entry dbl(glist, var)");
  EXPECT_EQ(First.Out, Again.Out);
  EXPECT_EQ(S.stats().CacheHits, 1u)
      << "the shared slot's response cache missed";
}

TEST(ServerTest, LinkWarningsRepeatOnEveryStoreSelection) {
  // A linked module with unresolved imports, through every verb that
  // selects a store: the link warnings come before each loaded/reusing
  // line, whether the slot is new or warm, and on no other reply.
  static const char *kLib = "app([], Ys, Ys).\n"
                            "app([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).\n";
  static const char *kUser = "dbl(Xs, Ys) :- app(Xs, Xs, Ys), ap(Ys, _), "
                             "chk(Ys).\n";
  AnalysisServer::Config Cfg = baseConfig(1);
  Cfg.LoadSource = [](const std::string &Spec, std::string &Source,
                      std::string &Err) {
    if (Spec != "src:lib" && Spec != "src:user") {
      Err = "unknown source '" + Spec + "'\n";
      return false;
    }
    Source = Spec == "src:lib" ? kLib : kUser;
    return true;
  };
  const std::string Warn =
      "warning: imported predicate ap/2 is not defined; did you mean "
      "app/3?\n"
      "warning: imported predicate chk/1 is not defined\n";
  const std::string Reuse =
      "reusing warm store for src:user src:lib (loaded as src:user src:lib, "
      "domain ";
  struct Step {
    const char *Line;
    std::string Err;
  };
  const Step Steps[] = {
      {"load src:user src:lib", Warn + "loaded src:user src:lib\n"},
      {"entry dbl(glist, var)", ""},
      {"domain det", "domain: det\n" + Warn + "loaded src:user src:lib\n"},
      {"domain modes", "domain: modes\n" + Warn + Reuse + "modes)\n"},
      {"load src:user src:lib", Warn + Reuse + "modes)\n"},
      {"domain pos", "domain: pos\n" + Warn + "loaded src:user src:lib\n"},
      {"domain det", "domain: det\n" + Warn + Reuse + "det)\n"},
  };
  AnalysisServer S(Cfg);
  int C = S.openClient();
  for (const Step &St : Steps) {
    AnalysisServer::Response R = S.execute(C, St.Line);
    EXPECT_EQ(St.Err, R.Err) << St.Line;
    EXPECT_EQ(std::string(St.Line).rfind("entry", 0) == 0, !R.Out.empty())
        << St.Line << " answered:\n"
        << R.Out;
  }
}

TEST(ServerTest, IdenticalTextUnderAnotherOperandReusesTheSlot) {
  AnalysisServer::Config Cfg = baseConfig(1);
  Cfg.LoadSource = [Bench = Cfg.LoadSource](const std::string &Spec,
                                            std::string &Source,
                                            std::string &Err) {
    return Bench(Spec == "copy:qsort" ? "bench:qsort" : Spec, Source, Err);
  };
  AnalysisServer S(Cfg);
  int C = S.openClient();
  EXPECT_EQ(S.execute(C, "load bench:qsort").Err, "loaded bench:qsort\n");
  AnalysisServer::Response First = S.execute(C, kQsortEntry);
  ASSERT_TRUE(First.Err.empty()) << First.Err;
  EXPECT_EQ(S.execute(C, "load copy:qsort").Err,
            "reusing warm store for copy:qsort (loaded as bench:qsort, "
            "domain modes)\n");
  AnalysisServer::Response Again = S.execute(C, kQsortEntry);
  EXPECT_EQ(First.Out, Again.Out);
  EXPECT_EQ(S.stats().CacheHits, 1u) << "the copy did not share the slot";
}

TEST(ServerTest, ChangedTextUnderTheSameOperandIsRecompiled) {
  // The operand names a file whose contents change between loads: each
  // load must answer for the text it read, never for the program an
  // earlier load of the same operand compiled.
  static const char *kOld = "p(a).\np(b).\n";
  static const char *kNew = "p(a).\np(b).\np(c) :- q.\nq.\n";
  auto Text = std::make_shared<std::string>(kOld);
  AnalysisServer::Config Cfg = baseConfig(1);
  Cfg.LoadSource = [Text](const std::string &Spec, std::string &Source,
                          std::string &Err) {
    if (Spec != "file:p") {
      Err = "cannot open " + Spec + "\n";
      return false;
    }
    Source = *Text;
    return true;
  };
  auto Reference = [](const char *Source) {
    SymbolTable Syms;
    TermArena Arena;
    Result<CompiledProgram> P = compileSource(Source, Syms, Arena);
    EXPECT_TRUE(P) << P.diag().str();
    AnalysisSession A(*P);
    Result<AnalysisResult> R = A.analyze("p(var)");
    EXPECT_TRUE(R) << R.diag().str();
    return formatReport(*R, *P, /*Modes=*/false);
  };
  const std::string OldOut = Reference(kOld), NewOut = Reference(kNew);
  ASSERT_NE(OldOut, NewOut);

  AnalysisServer S(Cfg);
  int C = S.openClient();
  EXPECT_EQ(S.execute(C, "load file:p").Err, "loaded file:p\n");
  EXPECT_EQ(S.execute(C, "entry p(var)").Out, OldOut);
  *Text = kNew;
  EXPECT_EQ(S.execute(C, "load file:p").Err, "loaded file:p\n");
  EXPECT_EQ(S.execute(C, "entry p(var)").Out, NewOut);
  S.execute(C, "domain det");
  S.execute(C, "domain modes");
  EXPECT_EQ(S.execute(C, "entry p(var)").Out, NewOut)
      << "a domain switch went back to the old program";
  *Text = kOld;
  EXPECT_EQ(S.execute(C, "load file:p").Err,
            "reusing warm store for file:p (loaded as file:p, domain "
            "modes)\n");
  EXPECT_EQ(S.execute(C, "entry p(var)").Out, OldOut);
}

TEST(ServerTest, JournalCompactionPreservesAnswers) {
  const BenchmarkProgram *B = findBenchmark("qsort");
  ASSERT_NE(B, nullptr);
  SymbolTable Syms;
  TermArena Arena;
  Result<CompiledProgram> P = compileSource(B->Source, Syms, Arena);
  ASSERT_TRUE(bool(P)) << P.diag().str();

  AnalysisStore Store(*P, AnalyzerOptions());
  Result<AnalysisResult> R1 = Store.query("qsort(glist, var, var)");
  ASSERT_TRUE(bool(R1)) << R1.diag().str();
  // A fresh call pattern (not a root or table entry of R1) forces a warm
  // drain that replays R1's banked traces.
  Result<AnalysisResult> R2 = Store.query("qsort(glist, g, var)");
  ASSERT_TRUE(bool(R2)) << R2.diag().str();
  // The warm second query re-banked replayed traces as shared handles, so
  // the bank now holds duplicates for compaction to fold.
  ASSERT_GT(Store.stats().ReplayedRuns, 0u)
      << "second query never replayed — the premise of this test";
  uint64_t Dropped = Store.compactJournals();
  EXPECT_GT(Store.stats().Compactions, 0u);
  EXPECT_GT(Store.stats().CompactedTraces + Dropped, 0u);

  // A warm drain from the compacted bank still answers byte-identically
  // to scratch (the bank is a hint; validation carries correctness).
  Result<std::pair<std::string, Pattern>> Spec =
      parseEntrySpec("qsort(glist, g, var)");
  ASSERT_TRUE(bool(Spec)) << Spec.diag().str();
  Result<AnalysisResult> R3 = Store.reanalyze({PredSig{"partition", 4}},
                                              Spec->first, Spec->second);
  ASSERT_TRUE(bool(R3)) << R3.diag().str();
  AnalysisSession Scratch(*P);
  Result<AnalysisResult> Want = Scratch.analyze("qsort(glist, g, var)");
  ASSERT_TRUE(bool(Want)) << Want.diag().str();
  EXPECT_EQ(formatAnalysis(*Want, Syms), formatAnalysis(*R3, Syms));
}

/// Runs \p Scripts on a fresh server built from \p Config, submitted
/// round-robin (step k of every client enters the queues before step k+1
/// of any: the maximally interleaved schedule), and expects each client's
/// payload stream to equal its single-client replay. Payload bytes only:
/// the message channel says "loaded" or "reusing warm store" depending on
/// which client created a shared slot first. Returns the server's stats.
AnalysisServer::Stats
expectStreamsMatchReplay(const AnalysisServer::Config &Config,
                         const std::vector<std::vector<std::string>> &Scripts) {
  std::vector<std::vector<AnalysisServer::Response>> Want;
  for (const std::vector<std::string> &Script : Scripts)
    Want.push_back(referenceReplay(Script));

  // Declared before the server: after a timeout, its destructor joins
  // workers that may still be running callbacks that write these.
  size_t N = Scripts.size();
  std::vector<std::vector<std::string>> Got(N);
  std::mutex M;
  std::atomic<size_t> Done{0};
  AnalysisServer S(Config);
  std::vector<int> Clients(N);
  size_t Total = 0;
  for (size_t I = 0; I != N; ++I)
    Clients[I] = S.openClient();
  for (size_t Step = 0;; ++Step) {
    bool Any = false;
    for (size_t I = 0; I != N; ++I) {
      if (Step >= Scripts[I].size())
        continue;
      Any = true;
      ++Total;
      S.submit(Clients[I], Scripts[I][Step],
               [&, I](const AnalysisServer::Response &R) {
                 std::lock_guard<std::mutex> L(M);
                 Got[I].push_back(R.Out);
                 ++Done;
               });
    }
    if (!Any)
      break;
  }
  EXPECT_TRUE(waitFor([&] { return Done.load() == Total; }));
  std::lock_guard<std::mutex> L(M);
  for (size_t I = 0; I != N; ++I) {
    EXPECT_EQ(Want[I].size(), Got[I].size()) << "client " << I;
    for (size_t J = 0; J != std::min(Want[I].size(), Got[I].size()); ++J)
      EXPECT_EQ(Want[I][J].Out, Got[I][J])
          << "client " << I << " line " << J << " ('" << Scripts[I][J]
          << "') diverged from replay";
  }
  return S.stats();
}

/// The first defined predicate of \p Source other than \p EntryName, as
/// name/arity, or "" when there is none: the service script's warm query
/// and edit target.
std::string workPredicate(std::string_view Source, std::string_view EntryName) {
  SymbolTable Syms;
  TermArena Arena;
  Result<CompiledProgram> P = compileSource(Source, Syms, Arena);
  EXPECT_TRUE(P) << P.diag().str();
  if (!P)
    return "";
  for (int32_t I = 0; I != P->Module->numPredicates(); ++I) {
    const PredicateInfo &PI = P->Module->predicate(I);
    std::string_view Name = Syms.name(PI.Name);
    if (!PI.Clauses.empty() && Name != EntryName)
      return std::string(Name) + "/" + std::to_string(PI.Arity);
  }
  return "";
}

/// The service workload: \p Clients scripts over the first \p Modules
/// Table 1 programs, client I walking them from rotation I / 2 so that
/// pairs of clients send identical queries together. Per module: load,
/// entry, a repeat entry (a response-cache hit), a most-general query of
/// the first defined predicate other than the entry (a warm drain), an
/// edit of that predicate, and the entry again.
std::vector<std::vector<std::string>> serviceScripts(size_t Clients,
                                                     size_t Modules) {
  std::vector<std::vector<std::string>> PerModule;
  for (const BenchmarkProgram &B : benchmarkPrograms()) {
    if (PerModule.size() == Modules)
      break;
    std::string Entry = "entry " + std::string(B.EntrySpec);
    std::vector<std::string> Lines = {"load bench:" + std::string(B.Name),
                                      Entry, Entry};
    std::string Work = workPredicate(B.Source, B.EntrySpec);
    if (!Work.empty()) {
      Lines.push_back("entry " + Work);
      Lines.push_back("edit " + Work);
    }
    Lines.push_back(Entry);
    PerModule.push_back(std::move(Lines));
  }
  std::vector<std::vector<std::string>> Scripts(Clients);
  for (size_t C = 0; C != Clients; ++C)
    for (size_t I = 0; I != PerModule.size(); ++I) {
      const std::vector<std::string> &Lines =
          PerModule[(I + C / 2) % PerModule.size()];
      Scripts[C].insert(Scripts[C].end(), Lines.begin(), Lines.end());
    }
  return Scripts;
}

TEST(ServerTest, FourWorkerStreamsMatchSingleClientReplay) {
  // A miniature in-process hammer: interleaved per-client scripts over
  // shared and distinct stores, each client's response stream compared to
  // a single-client replay of its script alone.
  {
    SCOPED_TRACE("hand-written scripts, 4 workers");
    expectStreamsMatchReplay(
        baseConfig(4),
        {
            {"load bench:qsort", kQsortEntry, "optimize", "edit partition/4",
             kPartEntry},
            {"load bench:qsort", kPartEntry, kQsortEntry, "edit qsort/3"},
            {"load bench:nreverse", "entry nreverse(glist, var)",
             "edit concatenate/3", "entry nreverse(glist, var)"},
            {"load bench:qsort", "modes", kQsortEntry, "modes"},
        });
  }
  // The service workload, 4 clients over 6 modules, at 1 and 4 workers
  // and under a 1-byte store cap that evicts every idle store after every
  // writer op. A cap that evicted nothing would make that run vacuous.
  const std::vector<std::vector<std::string>> Scripts = serviceScripts(4, 6);
  ASSERT_EQ(Scripts.size(), 4u);
  {
    SCOPED_TRACE("service scripts, 1 worker");
    expectStreamsMatchReplay(baseConfig(1), Scripts);
  }
  {
    SCOPED_TRACE("service scripts, 4 workers");
    expectStreamsMatchReplay(baseConfig(4), Scripts);
  }
  {
    SCOPED_TRACE("service scripts, 4 workers, 1-byte store cap");
    AnalysisServer::Stats T =
        expectStreamsMatchReplay(baseConfig(4, /*Cap=*/1), Scripts);
    EXPECT_GE(T.Evictions, 1u);
    EXPECT_GE(T.Rewarms, 1u);
  }
}

TEST(ServerTest, CompilesCountOnlyTextsNoSlotOfTheDomainHolds) {
  auto Text = std::make_shared<std::string>("p(a).\n");
  AnalysisServer::Config Cfg = baseConfig(1);
  Cfg.LoadSource = [Bench = Cfg.LoadSource, Text](const std::string &Spec,
                                                  std::string &Source,
                                                  std::string &Err) {
    if (Spec == "file:p") {
      Source = *Text;
      return true;
    }
    return Bench(Spec == "copy:qsort" ? "bench:qsort" : Spec, Source, Err);
  };
  AnalysisServer S(Cfg);
  int C = S.openClient();
  const std::pair<const char *, uint64_t> Steps[] = {
      {"load bench:qsort", 1}, {"load bench:qsort", 1},
      {"load copy:qsort", 1},  {"domain det", 2},
      {"domain modes", 2},     {"load copy:qsort", 2},
      {"domain det", 2},       {"load file:p", 3},
      {"domain modes", 4},     {"load file:p", 4},
  };
  for (const auto &[Line, Compiles] : Steps) {
    S.execute(C, Line);
    EXPECT_EQ(S.stats().Compiles, Compiles) << "after " << Line;
  }
  // Changed text compiles again; a failed compile counts, and is not
  // remembered, so repeating it compiles again.
  *Text = "p(b).\n";
  S.execute(C, "load file:p");
  EXPECT_EQ(S.stats().Compiles, 5u);
  *Text = "p(.\n";
  for (uint64_t N : {6u, 7u}) {
    EXPECT_EQ(S.execute(C, "load file:p").Err.rfind("error: ", 0), 0u);
    EXPECT_EQ(S.stats().Compiles, N);
  }
  AnalysisServer::Response St = S.execute(C, "stats");
  EXPECT_NE(St.Out.find(", compiles 7\n"), std::string::npos) << St.Out;
}

TEST(ServerTest, ServiceRotationsCompileEachModuleOncePerDomain) {
  // The service workload's script: the 11 Table 1 programs and a linked
  // corpus of about 1.2k clauses, each round ending in a det query
  // between two domain switches, for two clients half a rotation apart.
  // The first rotation compiles each module once per domain; after that
  // every load and switch finds its slot, and the payloads repeat.
  testgen::CorpusOptions O;
  O.Clauses = 1200;
  const testgen::Corpus Corpus = testgen::generateCorpus(1, O);
  struct Module {
    std::string Load, Entry, Work;
  };
  std::vector<Module> Mods;
  for (const BenchmarkProgram &B : benchmarkPrograms())
    Mods.push_back({"bench:" + std::string(B.Name), std::string(B.EntrySpec),
                    workPredicate(B.Source, B.EntrySpec)});
  Mods.push_back({"corpus:user corpus:lib", "drive/1",
                  workPredicate(Corpus.Library + Corpus.User, "drive")});
  auto RoundOf = [](const Module &M) {
    std::vector<std::string> L = {"load " + M.Load, "entry " + M.Entry,
                                  "entry " + M.Entry};
    if (!M.Work.empty())
      L.insert(L.end(), {"entry " + M.Work, "edit " + M.Work});
    L.insert(L.end(), {"entry " + M.Entry, "domain det", "entry " + M.Entry,
                       "domain modes"});
    return L;
  };
  AnalysisServer::Config Cfg = baseConfig(1);
  Cfg.LoadSource = [Bench = Cfg.LoadSource, &Corpus](const std::string &Spec,
                                                     std::string &Source,
                                                     std::string &Err) {
    if (Spec == "corpus:lib" || Spec == "corpus:user") {
      Source = Spec == "corpus:lib" ? Corpus.Library : Corpus.User;
      return true;
    }
    return Bench(Spec, Source, Err);
  };
  const size_t NM = Mods.size();
  for (int Workers : {1, 2}) {
    SCOPED_TRACE(std::to_string(Workers) + " worker(s)");
    // Declared before the server, whose callbacks write them.
    std::mutex M;
    std::vector<std::string> Got[2], First[2];
    Cfg.Workers = Workers;
    AnalysisServer S(Cfg);
    const int Clients[2] = {S.openClient(), S.openClient()};
    for (int Rotation = 0; Rotation != 3; ++Rotation) {
      for (size_t Round = 0; Round != NM; ++Round) {
        // Both clients' rounds in flight together, on different modules.
        const std::vector<std::string> Lines[2] = {
            RoundOf(Mods[Round]), RoundOf(Mods[(Round + NM / 2) % NM])};
        std::atomic<size_t> Done{0};
        for (size_t I = 0; I < std::max(Lines[0].size(), Lines[1].size());
             ++I)
          for (int K = 0; K != 2; ++K)
            if (I < Lines[K].size())
              S.submit(Clients[K], Lines[K][I],
                       [&, K](const AnalysisServer::Response &R) {
                         std::lock_guard<std::mutex> L(M);
                         Got[K].push_back(R.Out);
                         ++Done;
                       });
        ASSERT_TRUE(waitFor(
            [&] { return Done.load() == Lines[0].size() + Lines[1].size(); }));
      }
      std::lock_guard<std::mutex> L(M);
      EXPECT_EQ(S.stats().Compiles, 2 * NM) << "after rotation " << Rotation;
      for (int K = 0; K != 2; ++K) {
        if (Rotation == 0)
          First[K] = Got[K];
        else
          EXPECT_EQ(First[K], Got[K]) << "client " << K << " rotation "
                                      << Rotation;
        Got[K].clear();
      }
    }
  }
}

TEST(ServerTest, StatsPrintsOneCompleteLinePerStore) {
  // A store's label is its `load` operand, of any length. The long label
  // sorts first: a line cut short would lose its counters and newline and
  // swallow the next store's line.
  const std::string Long = "aux:" + std::string(640, 'x');
  AnalysisServer::Config Cfg = baseConfig(1);
  Cfg.LoadSource = [Bench = Cfg.LoadSource,
                    Long](const std::string &Spec, std::string &Source,
                          std::string &Err) {
    return Bench(Spec == Long ? "bench:nreverse" : Spec, Source, Err);
  };
  AnalysisServer S(Cfg);
  int C = S.openClient();
  S.execute(C, "load " + Long);
  ASSERT_TRUE(S.execute(C, "entry nreverse(glist, var)").Err.empty());
  S.execute(C, "load bench:qsort");
  ASSERT_TRUE(S.execute(C, kQsortEntry).Err.empty());

  AnalysisServer::Response St = S.execute(C, "stats");
  std::vector<std::string> Lines;
  size_t B = 0;
  for (size_t E; (E = St.Out.find('\n', B)) != std::string::npos; B = E + 1)
    if (St.Out.compare(B, 6, "store ") == 0)
      Lines.push_back(St.Out.substr(B, E - B));
  ASSERT_EQ(Lines.size(), 2u) << St.Out;
  const std::string Counters = ", hits 0, drains 1, evictions 0, rewarms 0";
  EXPECT_EQ(Lines[0].rfind("store " + Long + " [modes]: bytes ", 0), 0u)
      << Lines[0];
  EXPECT_EQ(Lines[1].rfind("store bench:qsort [modes]: bytes ", 0), 0u)
      << Lines[1];
  for (const std::string &L : Lines)
    EXPECT_TRUE(L.ends_with(Counters)) << L;
}

TEST(ServerTest, OptimizeRefusesDomainsWithoutBindingFacts) {
  // The specializer takes facts from modes and det analyses only, and the
  // server applies the rule analyze_file --optimize does: under pos the
  // verb answers the error with no payload, running and caching nothing.
  AnalysisServer S(baseConfig(1));
  int C = S.openClient();
  S.execute(C, "load bench:qsort");
  ASSERT_TRUE(S.execute(C, "entry main").Err.empty());
  S.execute(C, "domain pos");
  AnalysisServer::Stats Before = S.stats();
  for (const char *Line : {"optimize", "optimize main", "optimize main"}) {
    AnalysisServer::Response R = S.execute(C, Line);
    EXPECT_TRUE(R.Out.empty()) << Line << " answered:\n" << R.Out;
    EXPECT_EQ(R.Err, "optimize requires the \"modes\" or \"det\" domain "
                     "(facts come from call/success patterns)\n")
        << Line;
  }
  AnalysisServer::Stats After = S.stats();
  EXPECT_EQ(After.Queries, Before.Queries);
  EXPECT_EQ(After.Drains, Before.Drains);
  EXPECT_EQ(After.CacheHits, Before.CacheHits);
  EXPECT_EQ(After.LiveStores, Before.LiveStores);

  S.execute(C, "domain det");
  AnalysisServer::Response Det = S.execute(C, "optimize main");
  EXPECT_TRUE(Det.Err.empty()) << Det.Err;
  EXPECT_NE(Det.Out.find("specialization summary:"), std::string::npos);
}

TEST(ServerTest, EditRejectsArityBeyondInt) {
  // An arity that does not fit in int is a malformed operand, not a
  // wrapped-around signature: 4294967296 must not become main/0.
  AnalysisServer S(baseConfig(1));
  int C = S.openClient();
  S.execute(C, "load bench:qsort");
  ASSERT_TRUE(S.execute(C, "entry main").Err.empty());
  for (const char *Line : {"edit main/4294967296", "edit main/99999999999",
                           "edit main/2147483648"}) {
    AnalysisServer::Response R = S.execute(C, Line);
    EXPECT_TRUE(R.Out.empty()) << Line << " answered:\n" << R.Out;
    std::string Operand = std::string(Line).substr(5);
    EXPECT_EQ(R.Err, "bad edit '" + Operand + "': expected name/arity\n")
        << Line;
  }
  // The largest int still parses; it names no predicate of the module.
  AnalysisServer::Response Max = S.execute(C, "edit main/2147483647");
  EXPECT_TRUE(Max.Out.empty());
  EXPECT_NE(Max.Err.find("main/2147483647"), std::string::npos) << Max.Err;
}

} // namespace
