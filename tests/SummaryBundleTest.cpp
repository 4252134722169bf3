//===- tests/SummaryBundleTest.cpp - Summary export/import tests ----------===//
//
// The bundle contract: exporting a library store's summaries and importing
// them into a store over a linked (library + user) program warm-starts the
// user analysis — library activations replay from the imported traces —
// while every answer stays byte-identical to a scratch analysis of the
// linked program. Staleness (the library changed between export and
// import) drops the affected traces instead of corrupting anything, and a
// bundle round-trips through its byte format exactly.
//
//===----------------------------------------------------------------------===//

#include "analyzer/SummaryBundle.h"

#include "analyzer/Session.h"
#include "compiler/ModuleLink.h"

#include <gtest/gtest.h>

using namespace awam;

namespace {

constexpr std::string_view kLibSource = R"(
app([], Ys, Ys).
app([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).
rev([], []).
rev([X|Xs], R) :- rev(Xs, T), app(T, [X], R).
len([], z).
len([_|Xs], s(N)) :- len(Xs, N).
)";

// The user entry reaches the library with a glist argument, so its call
// patterns coincide with the pre-analyzed kLibSpecs below — that is what
// makes the imported traces replayable (a bundle is a warm-start hint
// keyed by exact (predicate, call pattern) pairs).
constexpr std::string_view kUserSource = R"(
main(Xs, R, N) :- rev(Xs, R), len(R, N).
)";
constexpr std::string_view kUserSpec = "main(glist, var, var)";

/// The library pre-analysis entries: the call patterns user code reaches
/// the library with.
const std::vector<std::string> kLibSpecs = {"rev(glist, var)",
                                            "len(glist, var)"};

class SummaryBundleTest : public ::testing::Test {
protected:
  CompiledProgram compile(std::string_view Source, SymbolTable &S,
                          TermArena &A) {
    Result<CompiledProgram> P = compileSource(Source, S, A);
    EXPECT_TRUE(P) << (P ? "" : P.diag().str());
    return P.take();
  }

  /// Analyzes the library standalone and exports its bundle bytes.
  std::string exportLibBundle(const CompiledProgram &Lib,
                              AnalyzerOptions O = {}) {
    O.Persistent = true;
    AnalysisSession S(Lib, O);
    for (const std::string &Spec : kLibSpecs) {
      Result<AnalysisResult> R = S.analyze(Spec);
      EXPECT_TRUE(R) << (R ? "" : R.diag().str());
    }
    Result<std::string> Bytes = S.exportSummaries();
    EXPECT_TRUE(Bytes) << (Bytes ? "" : Bytes.diag().str());
    return Bytes ? *Bytes : std::string();
  }

  /// The library's exported bundle, parsed back, for tests that corrupt
  /// one field and re-serialize it.
  SummaryBundle libBundle(const CompiledProgram &Lib, SymbolTable &Syms) {
    Result<SummaryBundle> B =
        SummaryBundle::deserialize(exportLibBundle(Lib), Syms);
    EXPECT_TRUE(B) << (B ? "" : B.diag().str());
    EXPECT_FALSE(B->Traces.empty());
    return B.take();
  }

  /// Rewrites every trace of \p B through \p F (traces are shared
  /// read-only, so each one is copied first).
  template <typename Fn> void mutateTraces(SummaryBundle &B, Fn F) {
    for (std::shared_ptr<const RunTrace> &T : B.Traces) {
      auto Copy = std::make_shared<RunTrace>(*T);
      F(*Copy);
      T = std::move(Copy);
    }
  }

  /// Serializes \p B and expects deserialize to reject the bytes with a
  /// message containing \p Why.
  void expectRejected(const SummaryBundle &B, SymbolTable &Syms,
                      std::string_view Why) {
    Result<SummaryBundle> Back =
        SummaryBundle::deserialize(B.serialize(Syms), Syms);
    ASSERT_FALSE(Back);
    EXPECT_NE(Back.diag().str().find(Why), std::string::npos)
        << Back.diag().str();
  }

  CompiledProgram linkUser(const CompiledProgram &Lib,
                           const CompiledProgram &User) {
    Result<LinkedProgram> L =
        linkPrograms({{&Lib, "lib.pl"}, {&User, "user.pl"}});
    EXPECT_TRUE(L) << (L ? "" : L.diag().str());
    EXPECT_TRUE(L->UnresolvedImports.empty());
    return std::move(L->Program);
  }
};

TEST_F(SummaryBundleTest, BytesRoundTripExactly) {
  SymbolTable Syms;
  TermArena Arena;
  CompiledProgram Lib = compile(kLibSource, Syms, Arena);
  std::string Bytes = exportLibBundle(Lib);
  ASSERT_FALSE(Bytes.empty());

  Result<SummaryBundle> B = SummaryBundle::deserialize(Bytes, Syms);
  ASSERT_TRUE(B) << B.diag().str();
  EXPECT_EQ(B->DomainName, "modes");
  EXPECT_EQ(B->DepthLimit, kDefaultDepthLimit);
  EXPECT_EQ(B->ModuleFingerprint, Lib.Module->fingerprint());
  EXPECT_FALSE(B->Summaries.empty());
  EXPECT_FALSE(B->Traces.empty());
  EXPECT_EQ(B->serialize(Syms), Bytes);
}

TEST_F(SummaryBundleTest, CorruptBytesRejected) {
  SymbolTable Syms;
  EXPECT_FALSE(SummaryBundle::deserialize("not a bundle", Syms));
  EXPECT_FALSE(SummaryBundle::deserialize("", Syms));
  TermArena Arena;
  CompiledProgram Lib = compile(kLibSource, Syms, Arena);
  std::string Bytes = exportLibBundle(Lib);
  // Truncation anywhere must error, never crash or mis-parse.
  for (size_t Cut : {size_t(4), size_t(9), Bytes.size() / 2,
                     Bytes.size() - 1})
    EXPECT_FALSE(
        SummaryBundle::deserialize(std::string_view(Bytes).substr(0, Cut),
                                   Syms))
        << "cut at " << Cut;
}

TEST_F(SummaryBundleTest, NegativeTracePidRejected) {
  SymbolTable Syms;
  TermArena Arena;
  CompiledProgram Lib = compile(kLibSource, Syms, Arena);
  SummaryBundle B = libBundle(Lib, Syms);
  B.TraceSigs.front().first = -1;
  expectRejected(B, Syms, "negative or duplicate trace predicate id -1");
}

TEST_F(SummaryBundleTest, DuplicateOrUnlistedTracePidRejected) {
  SymbolTable Syms;
  TermArena Arena;
  CompiledProgram Lib = compile(kLibSource, Syms, Arena);
  SummaryBundle B = libBundle(Lib, Syms);
  ASSERT_GE(B.TraceSigs.size(), 2u);
  SummaryBundle Dup = B;
  Dup.TraceSigs[1].first = Dup.TraceSigs[0].first;
  expectRejected(Dup, Syms, "negative or duplicate trace predicate id");
  mutateTraces(B, [](RunTrace &T) { T.Pred = 12345; });
  expectRejected(B, Syms, "unlisted predicate id");
}

TEST_F(SummaryBundleTest, HugeTracePidSizesNothing) {
  // A listed id far beyond the module's size is legal, but must not size
  // anything: the bundle round-trips with the id intact, and the import
  // banks and replays exactly what the unaltered bundle does.
  SymbolTable Syms;
  TermArena Arena;
  CompiledProgram Lib = compile(kLibSource, Syms, Arena);
  SummaryBundle B = libBundle(Lib, Syms);
  const int32_t Old = B.TraceSigs.back().first;
  constexpr int32_t kHuge = 60'000'000;
  B.TraceSigs.back().first = kHuge;
  mutateTraces(B, [&](RunTrace &T) {
    if (T.Pred == Old)
      T.Pred = kHuge;
    for (TraceOp &Op : T.Ops)
      if (Op.Pred == Old)
        Op.Pred = kHuge;
  });
  const std::string Bytes = B.serialize(Syms);
  Result<SummaryBundle> Back = SummaryBundle::deserialize(Bytes, Syms);
  ASSERT_TRUE(Back) << Back.diag().str();
  EXPECT_EQ(Back->TraceSigs.back().first, kHuge);
  EXPECT_EQ(Back->serialize(Syms), Bytes);

  AnalyzerOptions O;
  O.Persistent = true;
  AnalysisSession Plain(Lib, O), Huge(Lib, O);
  Result<AnalysisStore::ImportStats> IP =
      Plain.importSummaries(exportLibBundle(Lib));
  Result<AnalysisStore::ImportStats> IH = Huge.importSummaries(Bytes);
  ASSERT_TRUE(IP) << IP.diag().str();
  ASSERT_TRUE(IH) << IH.diag().str();
  EXPECT_GT(IH->Banked, 0u);
  EXPECT_EQ(IH->Banked, IP->Banked);
  Result<AnalysisResult> RP = Plain.analyze(kLibSpecs[0]);
  Result<AnalysisResult> RH = Huge.analyze(kLibSpecs[0]);
  ASSERT_TRUE(RP) << RP.diag().str();
  ASSERT_TRUE(RH) << RH.diag().str();
  EXPECT_EQ(formatAnalysis(*RH, Syms), formatAnalysis(*RP, Syms));
  EXPECT_EQ(Huge.store()->stats().ReplayedRuns,
            Plain.store()->stats().ReplayedRuns);
}

TEST_F(SummaryBundleTest, LeadingExitOpsRejected) {
  SymbolTable Syms;
  TermArena Arena;
  CompiledProgram Lib = compile(kLibSource, Syms, Arena);
  SummaryBundle B = libBundle(Lib, Syms);
  mutateTraces(B, [](RunTrace &T) {
    TraceOp Exit;
    Exit.K = TraceOp::Exit;
    T.Ops.insert(T.Ops.begin(), 2, Exit);
  });
  expectRejected(B, Syms, "trace op after the root frame returned");
}

TEST_F(SummaryBundleTest, UnbalancedTraceRejected) {
  SymbolTable Syms;
  TermArena Arena;
  CompiledProgram Lib = compile(kLibSource, Syms, Arena);
  SummaryBundle B = libBundle(Lib, Syms);
  mutateTraces(B, [](RunTrace &T) {
    ASSERT_EQ(T.Ops.back().K, TraceOp::Exit);
    T.Ops.pop_back();
  });
  expectRejected(B, Syms, "unbalanced trace");
}

TEST_F(SummaryBundleTest, GrowWithoutSummaryRejected) {
  SymbolTable Syms;
  TermArena Arena;
  CompiledProgram Lib = compile(kLibSource, Syms, Arena);
  SummaryBundle B = libBundle(Lib, Syms);
  bool Dropped = false;
  mutateTraces(B, [&](RunTrace &T) {
    for (TraceOp &Op : T.Ops)
      if (!Dropped && Op.K == TraceOp::Grow) {
        Op.Summary.reset();
        Dropped = true;
      }
  });
  ASSERT_TRUE(Dropped);
  expectRejected(B, Syms, "grow op without a summary");
}

TEST_F(SummaryBundleTest, UnknownOpKindRejected) {
  SymbolTable Syms;
  TermArena Arena;
  CompiledProgram Lib = compile(kLibSource, Syms, Arena);
  SummaryBundle B = libBundle(Lib, Syms);
  mutateTraces(B, [](RunTrace &T) {
    T.Ops.front().K = static_cast<TraceOp::Kind>(TraceOp::Grow + 1);
  });
  expectRejected(B, Syms, "unknown trace op kind 4");
}

TEST_F(SummaryBundleTest, UnknownPatternNodeKindRejected) {
  SymbolTable Syms;
  TermArena Arena;
  CompiledProgram Lib = compile(kLibSource, Syms, Arena);
  SummaryBundle B = libBundle(Lib, Syms);
  mutateTraces(B, [](RunTrace &T) {
    ASSERT_FALSE(T.Call.Nodes.empty());
    T.Call.Nodes.front().K =
        static_cast<PatKind>(static_cast<uint8_t>(PatKind::StrP) + 1);
  });
  expectRejected(B, Syms, "truncated or corrupt");
}

TEST_F(SummaryBundleTest, ImportWarmStartsByteIdentical) {
  SymbolTable Syms;
  TermArena Arena;
  CompiledProgram Lib = compile(kLibSource, Syms, Arena);
  CompiledProgram User = compile(kUserSource, Syms, Arena);
  std::string Bytes = exportLibBundle(Lib);
  CompiledProgram Linked = linkUser(Lib, User);

  AnalyzerOptions O;
  O.Persistent = true;

  // Scratch: the linked program analyzed from nothing.
  AnalysisSession Scratch(Linked, O);
  Result<AnalysisResult> LS = Scratch.analyze(kLibSpecs[0]);
  ASSERT_TRUE(LS) << LS.diag().str();
  Result<AnalysisResult> RS = Scratch.analyze(kUserSpec);
  ASSERT_TRUE(RS) << RS.diag().str();

  // Warm: same program, library bundle imported first.
  AnalysisSession Warm(Linked, O);
  Result<AnalysisStore::ImportStats> IS = Warm.importSummaries(Bytes);
  ASSERT_TRUE(IS) << IS.diag().str();
  EXPECT_GT(IS->Banked, 0u);
  EXPECT_EQ(IS->DroppedStale, 0u);
  EXPECT_EQ(IS->DroppedUnresolved, 0u);

  // A library entry warm-starts from the imported traces: replay aligns
  // root pops against the bundle's recorded root runs of that (pred,
  // call) pair, so this query replays rather than executes.
  Result<AnalysisResult> LW = Warm.analyze(kLibSpecs[0]);
  ASSERT_TRUE(LW) << LW.diag().str();
  EXPECT_EQ(formatAnalysis(*LW, Syms), formatAnalysis(*LS, Syms));
  ASSERT_NE(Warm.store(), nullptr);
  const AnalysisStore::Stats &St = Warm.store()->stats();
  EXPECT_EQ(St.WarmQueries, 1u);
  EXPECT_EQ(St.ColdQueries, 0u);
  EXPECT_GT(St.ReplayedRuns, 0u);
  EXPECT_EQ(St.BundlesImported, 1u);

  // The user entry — whose root the bundle has never seen — still comes
  // out byte-identical to scratch; imports are hints, never answers.
  Result<AnalysisResult> RW = Warm.analyze(kUserSpec);
  ASSERT_TRUE(RW) << RW.diag().str();
  EXPECT_EQ(formatAnalysis(*RW, Syms), formatAnalysis(*RS, Syms));
}

TEST_F(SummaryBundleTest, ImportAcrossSymbolTables) {
  // Export from one process-world, import into a fresh SymbolTable: the
  // byte format carries names, not table-local ids.
  std::string Bytes;
  {
    SymbolTable LibSyms;
    TermArena LibArena;
    CompiledProgram Lib = compile(kLibSource, LibSyms, LibArena);
    Bytes = exportLibBundle(Lib);
  }
  SymbolTable Syms;
  TermArena Arena;
  CompiledProgram Lib = compile(kLibSource, Syms, Arena);
  CompiledProgram User = compile(kUserSource, Syms, Arena);
  CompiledProgram Linked = linkUser(Lib, User);

  AnalyzerOptions O;
  O.Persistent = true;
  AnalysisSession Scratch(Linked, O);
  Result<AnalysisResult> RS = Scratch.analyze(kUserSpec);
  ASSERT_TRUE(RS) << RS.diag().str();

  AnalysisSession Warm(Linked, O);
  Result<AnalysisStore::ImportStats> IS = Warm.importSummaries(Bytes);
  ASSERT_TRUE(IS) << IS.diag().str();
  EXPECT_GT(IS->Banked, 0u);
  Result<AnalysisResult> RW = Warm.analyze(kUserSpec);
  ASSERT_TRUE(RW) << RW.diag().str();
  EXPECT_EQ(formatAnalysis(*RW, Syms), formatAnalysis(*RS, Syms));
}

TEST_F(SummaryBundleTest, StaleLibraryTracesDropped) {
  SymbolTable Syms;
  TermArena Arena;
  CompiledProgram LibV1 = compile(kLibSource, Syms, Arena);
  std::string Bytes = exportLibBundle(LibV1);

  // The library changed between export and import: rev/2 now reverses
  // into an accumulator (different clause code, same signature).
  constexpr std::string_view kLibV2 = R"(
app([], Ys, Ys).
app([X|Xs], Ys, [X|Zs]) :- app(Xs, Ys, Zs).
rev(Xs, R) :- rev_acc(Xs, [], R).
rev_acc([], Acc, Acc).
rev_acc([X|Xs], Acc, R) :- rev_acc(Xs, [X|Acc], R).
len([], z).
len([_|Xs], s(N)) :- len(Xs, N).
)";
  CompiledProgram LibV2 = compile(kLibV2, Syms, Arena);
  CompiledProgram User = compile(kUserSource, Syms, Arena);
  CompiledProgram Linked = linkUser(LibV2, User);

  AnalyzerOptions O;
  O.Persistent = true;
  AnalysisSession Warm(Linked, O);
  Result<AnalysisStore::ImportStats> IS = Warm.importSummaries(Bytes);
  ASSERT_TRUE(IS) << IS.diag().str();
  // rev/2's code fingerprint differs, so its traces drop; len/2 and app/3
  // are unchanged and still bank.
  EXPECT_GT(IS->DroppedStale, 0u);
  EXPECT_GT(IS->Banked, 0u);

  // Answers still match a scratch analysis of the new linked program.
  AnalysisSession Scratch(Linked, O);
  Result<AnalysisResult> RS = Scratch.analyze(kUserSpec);
  Result<AnalysisResult> RW = Warm.analyze(kUserSpec);
  ASSERT_TRUE(RS) << RS.diag().str();
  ASSERT_TRUE(RW) << RW.diag().str();
  EXPECT_EQ(formatAnalysis(*RW, Syms), formatAnalysis(*RS, Syms));
}

TEST_F(SummaryBundleTest, DomainAndDepthMismatchRejected) {
  SymbolTable Syms;
  TermArena Arena;
  CompiledProgram Lib = compile(kLibSource, Syms, Arena);
  std::string Bytes = exportLibBundle(Lib);

  CompiledProgram User = compile(kUserSource, Syms, Arena);
  CompiledProgram Linked = linkUser(Lib, User);

  {
    AnalyzerOptions O;
    O.Persistent = true;
    O.DomainName = "pos";
    AnalysisSession S(Linked, O);
    Result<AnalysisStore::ImportStats> IS = S.importSummaries(Bytes);
    ASSERT_FALSE(IS);
    EXPECT_NE(IS.diag().str().find("domain mismatch"), std::string::npos);
  }
  {
    AnalyzerOptions O;
    O.Persistent = true;
    O.DepthLimit = 3;
    AnalysisSession S(Linked, O);
    Result<AnalysisStore::ImportStats> IS = S.importSummaries(Bytes);
    ASSERT_FALSE(IS);
    EXPECT_NE(IS.diag().str().find("depth-limit mismatch"),
              std::string::npos);
  }
}

TEST_F(SummaryBundleTest, EmptyStoreExportsValidEmptyBundle) {
  SymbolTable Syms;
  TermArena Arena;
  CompiledProgram Lib = compile(kLibSource, Syms, Arena);
  AnalyzerOptions O;
  O.Persistent = true;
  AnalysisSession S(Lib, O);
  Result<std::string> Bytes = S.exportSummaries();
  ASSERT_TRUE(Bytes) << Bytes.diag().str();
  Result<SummaryBundle> B = SummaryBundle::deserialize(*Bytes, Syms);
  ASSERT_TRUE(B) << B.diag().str();
  EXPECT_TRUE(B->Traces.empty());
  EXPECT_TRUE(B->Summaries.empty());

  // Importing an empty bundle is a harmless no-op.
  AnalysisSession S2(Lib, O);
  Result<AnalysisStore::ImportStats> IS = S2.importSummaries(*Bytes);
  ASSERT_TRUE(IS) << IS.diag().str();
  EXPECT_EQ(IS->Banked, 0u);
  Result<AnalysisResult> R = S2.analyze(kLibSpecs[0]);
  EXPECT_TRUE(R) << (R ? "" : R.diag().str());
}

TEST_F(SummaryBundleTest, ReexportComposesBundles) {
  // lib -> bundle -> user store; the user store's own export contains
  // both its results and the surviving imported traces.
  SymbolTable Syms;
  TermArena Arena;
  CompiledProgram Lib = compile(kLibSource, Syms, Arena);
  CompiledProgram User = compile(kUserSource, Syms, Arena);
  std::string LibBytes = exportLibBundle(Lib);
  CompiledProgram Linked = linkUser(Lib, User);

  AnalyzerOptions O;
  O.Persistent = true;
  AnalysisSession S(Linked, O);
  ASSERT_TRUE(S.importSummaries(LibBytes));
  ASSERT_TRUE(S.analyze(kUserSpec));
  Result<std::string> Again = S.exportSummaries();
  ASSERT_TRUE(Again) << Again.diag().str();
  Result<SummaryBundle> B = SummaryBundle::deserialize(*Again, Syms);
  ASSERT_TRUE(B) << B.diag().str();
  EXPECT_EQ(B->ModuleFingerprint, Linked.Module->fingerprint());
  // main/2's summary is in there alongside the library's.
  bool SawMain = false, SawRev = false;
  for (const SummaryBundle::Summary &Sum : B->Summaries) {
    SawMain |= Sum.Sig.Name == "main";
    SawRev |= Sum.Sig.Name == "rev";
  }
  EXPECT_TRUE(SawMain);
  EXPECT_TRUE(SawRev);
}

} // namespace
