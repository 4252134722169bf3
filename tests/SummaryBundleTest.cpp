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

#include "RandomProgramGen.h"

#include "analyzer/Session.h"
#include "compiler/ModuleLink.h"
#include "programs/Benchmarks.h"

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

  /// Interns \p P into a copy of \p B's pattern table (the patterns
  /// already there keep their ids) and returns its id: how a test gives a
  /// bundle a pattern its bytes never carried.
  PatternId addPattern(SummaryBundle &B, const Pattern &P) {
    auto Table = std::make_shared<PatternInterner>();
    for (PatternId Id = 0; Id != B.Patterns->size(); ++Id)
      EXPECT_EQ(Table->intern(B.Patterns->pattern(Id)), Id);
    PatternId New = Table->intern(P);
    B.Patterns = Table;
    return New;
  }

  /// Writes \p Count over the little-endian u32 count at \p At of the
  /// library's bundle bytes and expects both deserialize and a store's
  /// import to reject the result as corrupt.
  void expectCountRejected(size_t (*CountAt)(std::string_view),
                           uint32_t Count) {
    SymbolTable Syms;
    TermArena Arena;
    CompiledProgram Lib = compile(kLibSource, Syms, Arena);
    std::string Bytes = exportLibBundle(Lib);
    size_t At = CountAt(Bytes);
    ASSERT_LE(At + 4, Bytes.size());
    for (int I = 0; I != 4; ++I)
      Bytes[At + I] = static_cast<char>((Count >> (8 * I)) & 0xff);
    Result<SummaryBundle> B = SummaryBundle::deserialize(Bytes, Syms);
    ASSERT_FALSE(B);
    EXPECT_NE(B.diag().str().find("truncated or corrupt"), std::string::npos)
        << B.diag().str();
    AnalyzerOptions O;
    AnalysisSession S(Lib, O);
    Result<AnalysisStore::ImportStats> IS = S.importSummaries(Bytes);
    ASSERT_FALSE(IS);
    EXPECT_NE(IS.diag().str().find("truncated or corrupt"),
              std::string::npos)
        << IS.diag().str();
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
        Op.Summary = kInvalidPatternId;
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
  Pattern Bad(B.Patterns->pattern(B.Traces.front()->Call));
  ASSERT_FALSE(Bad.Nodes.empty());
  Bad.Nodes.front().K =
      static_cast<PatKind>(static_cast<uint8_t>(PatKind::StrP) + 1);
  PatternId BadId = addPattern(B, Bad);
  mutateTraces(B, [&](RunTrace &T) { T.Call = BadId; });
  expectRejected(B, Syms, "truncated or corrupt");
}

/// The little-endian u32 at byte \p At of bundle bytes \p B.
size_t u32At(std::string_view B, size_t At) {
  uint32_t V = 0;
  for (int I = 0; I != 4; ++I)
    V |= static_cast<uint32_t>(static_cast<unsigned char>(B[At + I]))
         << (8 * I);
  return V;
}

/// Byte offset of the node count of the first summary's calling pattern
/// (the layout is SummaryBundle::serialize's).
size_t firstNodeCountAt(std::string_view B) {
  size_t At = 8;             // magic, version
  At += 4 + u32At(B, At);    // domain name
  At += 4 + 8 + 4;           // depth limit, module fingerprint, summary count
  At += 4 + u32At(B, At) + 4; // the first summary's name and arity
  return At;
}

/// Byte offset of the child count of the same pattern, past its nodes.
size_t firstChildCountAt(std::string_view B) {
  size_t At = firstNodeCountAt(B);
  size_t NumNodes = u32At(B, At);
  At += 4;
  for (size_t I = 0; I != NumNodes; ++I) {
    bool HasSym = B[At + 1] != 0; // kind, symbol flag
    At += 2;
    if (HasSym)
      At += 4 + u32At(B, At);
    At += 8 + 4 + 4; // number, child slice
  }
  return At;
}

TEST_F(SummaryBundleTest, HugeNodeCountRejected) {
  // 0x80000001 nodes at two bytes each wrapped to a 2-byte check in
  // 32 bits, and import went on to reserve tens of gigabytes.
  expectCountRejected(firstNodeCountAt, 0x80000001u);
}

TEST_F(SummaryBundleTest, HugeChildCountRejected) {
  expectCountRejected(firstChildCountAt, 0xF0000000u);
}

TEST_F(SummaryBundleTest, ImportWarmStartsByteIdentical) {
  SymbolTable Syms;
  TermArena Arena;
  CompiledProgram Lib = compile(kLibSource, Syms, Arena);
  CompiledProgram User = compile(kUserSource, Syms, Arena);
  std::string Bytes = exportLibBundle(Lib);
  CompiledProgram Linked = linkUser(Lib, User);

  AnalyzerOptions O;

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

TEST_F(SummaryBundleTest, ImportedTraceWithChangedMemoReadIsNotReplayed) {
  // The import-side twin of IncrementalTest's
  // KeptTraceWithChangedMemoReadIsNotReplayed: p/2's second run memo-reads
  // q/2, whose summary changes with r/2's code between export and import.
  // p's and q's code fingerprints are unchanged, so that trace banks, and
  // only its recorded memo summary shows replay that it is stale.
  SymbolTable Syms;
  TermArena Arena;
  const std::string Src = "main :- q(a, W), p(a, Y).\n"
                          "q(X, Y) :- r(X, Y).\n"
                          "p(X, Y) :- p(X, Z), q(Z, Y).\n"
                          "p(X, X).\n";
  CompiledProgram V1 = compile(Src + "r(a, b).\n", Syms, Arena);
  CompiledProgram V2 = compile(Src + "r(a, 1).\n", Syms, Arena);
  AnalyzerOptions O;
  std::string Bytes;
  {
    AnalysisSession S(V1, O);
    ASSERT_TRUE(S.analyze("main"));
    Result<std::string> B = S.exportSummaries();
    ASSERT_TRUE(B) << B.diag().str();
    Bytes = *B;
  }

  AnalysisSession Warm(V2, O);
  Result<AnalysisStore::ImportStats> IS = Warm.importSummaries(Bytes);
  ASSERT_TRUE(IS) << IS.diag().str();
  EXPECT_GT(IS->DroppedStale, 0u); // the runs that entered r/2
  EXPECT_GT(IS->Banked, 0u);       // p's runs, which only memo-read q/2
  Result<AnalysisResult> RW = Warm.analyze("main");
  ASSERT_TRUE(RW) << RW.diag().str();

  AnalysisSession Scratch(V2);
  Result<AnalysisResult> RS = Scratch.analyze("main");
  ASSERT_TRUE(RS) << RS.diag().str();
  EXPECT_EQ(formatAnalysis(*RW, Syms), formatAnalysis(*RS, Syms));
  ASSERT_NE(Warm.store(), nullptr);
  EXPECT_EQ(Warm.store()->stats().WarmQueries, 1u);
  EXPECT_EQ(Warm.store()->stats().ReplayedRuns, 0u);
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
    O.DomainName = "pos";
    AnalysisSession S(Linked, O);
    Result<AnalysisStore::ImportStats> IS = S.importSummaries(Bytes);
    ASSERT_FALSE(IS);
    EXPECT_NE(IS.diag().str().find("domain mismatch"), std::string::npos);
  }
  {
    AnalyzerOptions O;
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

//===----------------------------------------------------------------------===//
// Bundle byte goldens
//===----------------------------------------------------------------------===//
//
// BytesRoundTripExactly only shows that a bundle re-serializes to itself;
// these goldens pin the exported bytes themselves, so a change to how the
// store keeps patterns or traces cannot move a byte unnoticed. An
// intentional format change must re-pin them in the same commit and say
// why.

/// FNV-1a over a byte string.
uint64_t hashBytes(std::string_view S) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

struct BundleGolden {
  std::string_view Program;
  uint64_t Modes, Pos, Det;
};

constexpr BundleGolden kTable1Bundles[] = {
    {"log10",
     0x7836a37133f2e663ull,
     0xe469f0f8509960c5ull,
     0x6d4d453c81f7cc9eull},
    {"ops8",
     0x267cdeb6437e65a1ull,
     0x4bdbe88059bfa2aeull,
     0x141a9a33b60be2a4ull},
    {"times10",
     0x4f3415b4742bbd3aull,
     0xb298b89aa091a292ull,
     0x72bd9bc1733bee61ull},
    {"divide10",
     0xd1972e5a2ed637a1ull,
     0x7005414175378308ull,
     0xb0c21b4f4ef73cull},
    {"tak",
     0x46772350b49c1aabull,
     0x8d01b29310acd413ull,
     0x7496db162929669cull},
    {"nreverse",
     0x49ee97bfdaf755bcull,
     0xb0dafcb019380371ull,
     0x1d295f52c7555c9ull},
    {"qsort",
     0xaf5c92921f35cee2ull,
     0x7acb54d43d87c3ceull,
     0x66da9cc4a8e88643ull},
    {"query",
     0xc7c60a877589c2caull,
     0xa73cffe168c0c7e0ull,
     0xf59efb396090e675ull},
    {"zebra",
     0x6c10a524e4d247b4ull,
     0x85f82c38fb2314a0ull,
     0x43431618187592b1ull},
    {"serialise",
     0xfcdff33d42e11b40ull,
     0x7ab2e204e46c6e9bull,
     0x8dc9a6a56765f909ull},
    {"queens_8",
     0xdd21c2b6d314b858ull,
     0xeb07f21d171ff42eull,
     0x2ceda2e2fdff07bfull},
};

TEST(SummaryBundleGolden, Table1Programs) {
  ASSERT_EQ(benchmarkPrograms().size(), std::size(kTable1Bundles));
  for (const BundleGolden &G : kTable1Bundles) {
    const BenchmarkProgram *B = findBenchmark(G.Program);
    ASSERT_NE(B, nullptr) << G.Program;
    for (auto [Domain, Want] : {std::pair{"modes", G.Modes},
                                std::pair{"pos", G.Pos},
                                std::pair{"det", G.Det}}) {
      SymbolTable Syms;
      TermArena Arena;
      Result<CompiledProgram> P = compileSource(B->Source, Syms, Arena);
      ASSERT_TRUE(P) << G.Program << ": " << P.diag().str();
      AnalyzerOptions O;
      O.DomainName = Domain;
      AnalysisSession S(*P, O);
      Result<AnalysisResult> R = S.analyze("main");
      ASSERT_TRUE(R) << G.Program << ": " << R.diag().str();
      Result<std::string> Bytes = S.exportSummaries();
      ASSERT_TRUE(Bytes) << Bytes.diag().str();
      EXPECT_EQ(hashBytes(*Bytes), Want)
          << G.Program << " " << Domain << " = 0x" << std::hex
          << hashBytes(*Bytes);
    }
  }
}

TEST(SummaryBundleGolden, LinkedCorpusAndReexport) {
  // The cold export of a linked 8k-clause corpus, and the re-export of a
  // fresh store that imported it and answered the same entry warm.
  testgen::CorpusOptions CO;
  CO.Clauses = 8000;
  testgen::Corpus C = testgen::generateCorpus(7, CO);
  SymbolTable Syms;
  TermArena Arena;
  Result<CompiledProgram> Lib = compileSource(C.Library, Syms, Arena);
  ASSERT_TRUE(Lib) << Lib.diag().str();
  Result<CompiledProgram> User = compileSource(C.User, Syms, Arena);
  ASSERT_TRUE(User) << User.diag().str();
  Result<LinkedProgram> L =
      linkPrograms({{&*Lib, "library"}, {&*User, "user"}});
  ASSERT_TRUE(L) << L.diag().str();

  AnalyzerOptions O;
  AnalysisSession Cold(L->Program, O);
  ASSERT_TRUE(Cold.analyze("drive/1"));
  Result<std::string> Bytes = Cold.exportSummaries();
  ASSERT_TRUE(Bytes) << Bytes.diag().str();
  EXPECT_EQ(Bytes->size(), 2304602u);
  EXPECT_EQ(hashBytes(*Bytes), 0x66c4753db599c72cull)
      << "export = 0x" << std::hex << hashBytes(*Bytes);

  AnalysisSession Warm(L->Program, O);
  ASSERT_TRUE(Warm.importSummaries(*Bytes));
  ASSERT_TRUE(Warm.analyze("drive/1"));
  Result<std::string> Again = Warm.exportSummaries();
  ASSERT_TRUE(Again) << Again.diag().str();
  EXPECT_EQ(hashBytes(*Again), 0x66c4753db599c72cull)
      << "re-export = 0x" << std::hex << hashBytes(*Again);
}

} // namespace
