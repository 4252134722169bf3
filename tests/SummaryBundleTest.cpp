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

#include <algorithm>

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

  /// Expects deserialize, and the import of a store over \p Lib that has
  /// answered a query, to reject \p Bytes with a message containing
  /// \p Why, and the store to be left as it was.
  void expectBytesRejected(const CompiledProgram &Lib, SymbolTable &Syms,
                           std::string_view Bytes, std::string_view Why) {
    Result<SummaryBundle> B = SummaryBundle::deserialize(Bytes, Syms);
    ASSERT_FALSE(B);
    EXPECT_NE(B.diag().str().find(Why), std::string::npos) << B.diag().str();

    AnalyzerOptions O;
    AnalysisSession S(Lib, O);
    ASSERT_TRUE(S.analyze(kLibSpecs[0]));
    const AnalysisStore &Store = *S.store();
    const std::string Dump = Store.canonicalDump(Syms);
    const uint64_t StoreBytes = Store.bytesUsed();
    Result<AnalysisStore::ImportStats> IS = S.importSummaries(Bytes);
    ASSERT_FALSE(IS);
    EXPECT_NE(IS.diag().str().find(Why), std::string::npos)
        << IS.diag().str();
    EXPECT_EQ(Store.canonicalDump(Syms), Dump);
    EXPECT_EQ(Store.bytesUsed(), StoreBytes);
    EXPECT_EQ(Store.stats().BundlesImported, 0u);
    EXPECT_EQ(Store.stats().ImportedTraces, 0u);
  }

  /// Writes \p Value over the little-endian u32 at \p At of the library's
  /// bundle bytes, seals them again (so the checksum does not catch the
  /// change first) and expects the result rejected with \p Why (see
  /// expectBytesRejected).
  void expectU32Rejected(size_t (*At)(std::string_view), uint32_t Value,
                         std::string_view Why) {
    SymbolTable Syms;
    TermArena Arena;
    CompiledProgram Lib = compile(kLibSource, Syms, Arena);
    std::string Bytes = exportLibBundle(Lib);
    size_t Pos = At(Bytes);
    ASSERT_LE(Pos + 4, Bytes.size());
    for (int I = 0; I != 4; ++I)
      Bytes[Pos + I] = static_cast<char>((Value >> (8 * I)) & 0xff);
    SummaryBundle::seal(Bytes);
    expectBytesRejected(Lib, Syms, Bytes, Why);
  }

  /// Serializes \p B and expects the bytes rejected with \p Why (see
  /// expectBytesRejected).
  void expectRejected(const CompiledProgram &Lib, const SummaryBundle &B,
                      SymbolTable &Syms, std::string_view Why) {
    expectBytesRejected(Lib, Syms, B.serialize(Syms), Why);
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
  EXPECT_FALSE(B->Preds.empty());
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
  B.Preds.front().Pid = -1;
  expectRejected(Lib, B, Syms, "negative or duplicate trace predicate id -1");
}

TEST_F(SummaryBundleTest, DuplicateOrUnlistedTracePidRejected) {
  SymbolTable Syms;
  TermArena Arena;
  CompiledProgram Lib = compile(kLibSource, Syms, Arena);
  SummaryBundle B = libBundle(Lib, Syms);
  ASSERT_GE(B.Preds.size(), 2u);
  SummaryBundle Dup = B;
  Dup.Preds[1].Pid = Dup.Preds[0].Pid;
  expectRejected(Lib, Dup, Syms, "negative or duplicate trace predicate id");
  mutateTraces(B, [](RunTrace &T) { T.Pred = 12345; });
  expectRejected(Lib, B, Syms, "unlisted predicate id");
}

TEST_F(SummaryBundleTest, HugeTracePidSizesNothing) {
  // A listed id far beyond the module's size is legal, but must not size
  // anything: the bundle round-trips with the id intact, and the import
  // banks and replays exactly what the unaltered bundle does.
  SymbolTable Syms;
  TermArena Arena;
  CompiledProgram Lib = compile(kLibSource, Syms, Arena);
  SummaryBundle B = libBundle(Lib, Syms);
  const int32_t Old = B.Preds.back().Pid;
  constexpr int32_t kHuge = 60'000'000;
  B.Preds.back().Pid = kHuge;
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
  EXPECT_EQ(Back->Preds.back().Pid, kHuge);
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
  expectRejected(Lib, B, Syms, "trace op after the root frame returned");
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
  expectRejected(Lib, B, Syms, "unbalanced trace");
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
  expectRejected(Lib, B, Syms, "grow op without a summary");
}

TEST_F(SummaryBundleTest, UnknownOpKindRejected) {
  SymbolTable Syms;
  TermArena Arena;
  CompiledProgram Lib = compile(kLibSource, Syms, Arena);
  SummaryBundle B = libBundle(Lib, Syms);
  mutateTraces(B, [](RunTrace &T) {
    T.Ops.front().K = static_cast<TraceOp::Kind>(TraceOp::Grow + 1);
  });
  expectRejected(Lib, B, Syms, "unknown trace op kind 4");
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
  expectRejected(Lib, B, Syms, "truncated or corrupt");
}

TEST_F(SummaryBundleTest, MissingCallingPatternRejected) {
  // Replay keys every root and every Memo/Enter op by its calling pattern.
  SymbolTable Syms;
  TermArena Arena;
  CompiledProgram Lib = compile(kLibSource, Syms, Arena);
  SummaryBundle B = libBundle(Lib, Syms);
  SummaryBundle Rootless = B;
  mutateTraces(Rootless, [](RunTrace &T) { T.Call = kInvalidPatternId; });
  expectRejected(Lib, Rootless, Syms, "trace root without a calling pattern");
  for (TraceOp::Kind K : {TraceOp::Memo, TraceOp::Enter}) {
    SummaryBundle Op = B;
    bool Dropped = false;
    mutateTraces(Op, [&](RunTrace &T) {
      for (TraceOp &O : T.Ops)
        if (!Dropped && O.K == K) {
          O.Call = kInvalidPatternId;
          Dropped = true;
        }
    });
    ASSERT_TRUE(Dropped) << int(K);
    expectRejected(Lib, Op, Syms,
                   "memo or enter op without a calling pattern");
  }
}

TEST_F(SummaryBundleTest, StrayCallingPatternRejected) {
  // A Grow op has no callee, so a calling pattern on one is corrupt. (An
  // Exit's pattern fields hold its frame's step count.)
  SymbolTable Syms;
  TermArena Arena;
  CompiledProgram Lib = compile(kLibSource, Syms, Arena);
  SummaryBundle B = libBundle(Lib, Syms);
  bool Added = false;
  mutateTraces(B, [&](RunTrace &T) {
    for (TraceOp &O : T.Ops)
      if (!Added && O.K == TraceOp::Grow) {
        O.Call = T.Call;
        Added = true;
      }
  });
  ASSERT_TRUE(Added);
  expectRejected(Lib, B, Syms, "grow op with a calling pattern");
}

TEST_F(SummaryBundleTest, CyclicPatternRejected) {
  // Two list nodes that are each other's element type: every index names
  // a node, but printing the pattern would recurse without bound.
  SymbolTable Syms;
  TermArena Arena;
  CompiledProgram Lib = compile(kLibSource, Syms, Arena);
  SummaryBundle B = libBundle(Lib, Syms);
  Pattern Cyclic;
  PatNode L;
  L.K = PatKind::ListP;
  L.ChildCount = 1;
  Cyclic.Nodes = {L, L};
  Cyclic.Nodes[1].ChildBegin = 1;
  Cyclic.ChildStore = {1, 0};
  Cyclic.Roots = {0, 1};
  PatternId BadId = addPattern(B, Cyclic);
  mutateTraces(B, [&](RunTrace &T) { T.Call = BadId; });
  expectRejected(Lib, B, Syms, "truncated or corrupt");
}

TEST_F(SummaryBundleTest, ChildCountThatDoesNotFitTheKindRejected) {
  // A list cell has two children, an alpha-list one and a leaf none;
  // printing reads child(N, 0) and child(N, 1) unchecked.
  SymbolTable Syms;
  TermArena Arena;
  CompiledProgram Lib = compile(kLibSource, Syms, Arena);
  PatNode Leaf;
  Leaf.K = PatKind::AnyP;
  for (auto [K, Children] : {std::pair{PatKind::ConsP, 0},
                             std::pair{PatKind::ConsP, 1},
                             std::pair{PatKind::ListP, 2},
                             std::pair{PatKind::AnyP, 1}}) {
    SummaryBundle B = libBundle(Lib, Syms);
    Pattern Bad;
    PatNode N;
    N.K = K;
    N.ChildCount = Children;
    Bad.Nodes = {N, Leaf};
    Bad.ChildStore.assign(static_cast<size_t>(Children), 1);
    Bad.Roots = {0, 1};
    PatternId BadId = addPattern(B, Bad);
    mutateTraces(B, [&](RunTrace &T) { T.Call = BadId; });
    SCOPED_TRACE("kind " + std::to_string(static_cast<int>(K)) + ", " +
                 std::to_string(Children) + " children");
    expectRejected(Lib, B, Syms, "truncated or corrupt");
  }
}

/// The little-endian u32 at byte \p At of bundle bytes \p B.
size_t u32At(std::string_view B, size_t At) {
  uint32_t V = 0;
  for (int I = 0; I != 4; ++I)
    V |= static_cast<uint32_t>(static_cast<unsigned char>(B[At + I]))
         << (8 * I);
  return V;
}

// Byte offsets into bundle bytes, following SummaryBundle::serialize's
// layout: header, predicate table, pattern table, traces.

/// Byte offset of the pattern table's count.
size_t patternCountAt(std::string_view B) {
  size_t At = 16;         // magic, version, checksum
  At += 4 + u32At(B, At); // domain name
  At += 4;                // depth limit
  size_t NumPreds = u32At(B, At);
  At += 4;
  for (size_t I = 0; I != NumPreds; ++I) {
    At += 4;                // pid
    At += 4 + u32At(B, At); // name
    At += 4 + 8;            // arity, code hash
  }
  return At;
}

/// Byte offset of the node count of the first pattern-table entry.
size_t firstNodeCountAt(std::string_view B) { return patternCountAt(B) + 4; }

/// Byte offset of the child count of the pattern whose node count is at
/// \p At, past its nodes.
size_t pastNodes(std::string_view B, size_t At) {
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

/// Byte offset of the child count of the first pattern-table entry.
size_t firstChildCountAt(std::string_view B) {
  return pastNodes(B, firstNodeCountAt(B));
}

/// Byte offset of the first trace: its root predicate id.
size_t firstTraceAt(std::string_view B) {
  size_t At = patternCountAt(B);
  size_t NumPatterns = u32At(B, At);
  At += 4;
  for (size_t I = 0; I != NumPatterns; ++I) {
    At = pastNodes(B, At);
    At += 4 + 4 * u32At(B, At); // children
    At += 4 + 4 * u32At(B, At); // roots
  }
  return At + 4; // the trace count
}

/// Byte offsets of the first trace's calling pattern and of its first op's
/// summary (kind, root pid, call, pre-success, steps, op count; then kind,
/// created flag, pred, call).
size_t firstTraceCallAt(std::string_view B) {
  return firstTraceAt(B) + 1 + 4;
}
size_t firstOpSummaryAt(std::string_view B) {
  return firstTraceAt(B) + 1 + 4 * 3 + 8 + 4 + 1 + 1 + 4 + 4;
}

TEST_F(SummaryBundleTest, HugeNodeCountRejected) {
  // 0x80000001 nodes at two bytes each wrapped to a 2-byte check in
  // 32 bits, and import went on to reserve tens of gigabytes.
  expectU32Rejected(firstNodeCountAt, 0x80000001u, "truncated or corrupt");
}

TEST_F(SummaryBundleTest, HugeChildCountRejected) {
  expectU32Rejected(firstChildCountAt, 0xF0000000u, "truncated or corrupt");
}

TEST_F(SummaryBundleTest, HugePatternCountRejected) {
  expectU32Rejected(patternCountAt, 0xF0000000u, "truncated or corrupt");
}

TEST_F(SummaryBundleTest, PatternIndexOutOfRangeRejected) {
  // Index N of an N-entry table is one past its end, and so is every
  // index up to the "none" reference just below 2^32.
  SymbolTable Syms;
  TermArena Arena;
  CompiledProgram Lib = compile(kLibSource, Syms, Arena);
  const std::string Bytes = exportLibBundle(Lib);
  const uint32_t NumPatterns =
      static_cast<uint32_t>(u32At(Bytes, patternCountAt(Bytes)));
  ASSERT_GT(NumPatterns, 0u);
  for (uint32_t Index : {NumPatterns, 0xFFFFFFFEu}) {
    expectU32Rejected(firstTraceCallAt, Index, "pattern index out of range");
    expectU32Rejected(firstOpSummaryAt, Index, "pattern index out of range");
  }
}

TEST_F(SummaryBundleTest, Version1BytesRejected) {
  // A version-1 bundle, which a version-1 reader accepts: the header with
  // a (zero) module fingerprint, then empty summary, code, signature and
  // trace sections, as a store that had answered nothing exported.
  std::string V1("AWSB", 4);
  auto PutU32 = [&](uint32_t V) {
    for (int I = 0; I != 4; ++I)
      V1.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
  };
  PutU32(1);
  PutU32(5);
  V1 += "modes";
  PutU32(static_cast<uint32_t>(kDefaultDepthLimit));
  V1.append(8, '\0'); // module fingerprint
  for (int Section = 0; Section != 4; ++Section)
    PutU32(0);
  SymbolTable Syms;
  TermArena Arena;
  CompiledProgram Lib = compile(kLibSource, Syms, Arena);
  expectBytesRejected(Lib, Syms, V1,
                      "unsupported format version 1 (expected 3)");
  // Today's layout under an old version number is refused the same way:
  // a version-2 reader would take an Exit's step count for two pattern
  // indexes and a frame trace for a run.
  for (uint32_t Old : {1u, 2u})
    expectU32Rejected([](std::string_view) { return size_t(4); }, Old,
                      "unsupported format version " + std::to_string(Old) +
                          " (expected 3)");
}

TEST_F(SummaryBundleTest, EveryFlippedByteIsRefused) {
  // One byte changed anywhere — magic, version, checksum or payload — and
  // the bundle no longer imports: 1,000 seeded positions of qsort's
  // bundle, each flipped by a nonzero mask.
  const BenchmarkProgram *Q = findBenchmark("qsort");
  ASSERT_NE(Q, nullptr);
  SymbolTable Syms;
  TermArena Arena;
  CompiledProgram P = compile(Q->Source, Syms, Arena);
  AnalyzerOptions O;
  AnalysisSession S(P, O);
  ASSERT_TRUE(S.analyze("main"));
  Result<std::string> Bytes = S.exportSummaries();
  ASSERT_TRUE(Bytes) << Bytes.diag().str();
  ASSERT_TRUE(SummaryBundle::deserialize(*Bytes, Syms));
  const std::string Dump = S.store()->canonicalDump(Syms);
  testgen::SplitMix64 Rng(23);
  int Refused = 0;
  for (int I = 0; I != 1000; ++I) {
    std::string Copy = *Bytes;
    size_t At = Rng.next() % Copy.size();
    Copy[At] = static_cast<char>(Copy[At] ^ (1 + Rng.next() % 255));
    bool Parsed = static_cast<bool>(SummaryBundle::deserialize(Copy, Syms));
    bool Imported = static_cast<bool>(S.importSummaries(Copy));
    EXPECT_FALSE(Parsed) << "flip at byte " << At;
    EXPECT_FALSE(Imported) << "flip at byte " << At;
    Refused += !Parsed && !Imported;
  }
  EXPECT_EQ(Refused, 1000);
  EXPECT_EQ(S.store()->canonicalDump(Syms), Dump);
  EXPECT_EQ(S.store()->stats().BundlesImported, 0u);
}

TEST_F(SummaryBundleTest, ExportWritesEachUsedPatternOnce) {
  // The pattern table holds exactly the patterns the traces use, each
  // once: deserialize interns the table into a fresh interner, which
  // would fold a duplicate, and every entry is referenced by some trace.
  // Checked on a library export and on a user store's re-export, whose
  // pool mixes its own traces with imported ones.
  SymbolTable Syms;
  TermArena Arena;
  CompiledProgram Lib = compile(kLibSource, Syms, Arena);
  CompiledProgram User = compile(kUserSource, Syms, Arena);
  const std::string LibBytes = exportLibBundle(Lib);
  CompiledProgram Linked = linkUser(Lib, User);
  AnalyzerOptions O;
  AnalysisSession S(Linked, O);
  ASSERT_TRUE(S.importSummaries(LibBytes));
  ASSERT_TRUE(S.analyze(kUserSpec));
  Result<std::string> UserBytes = S.exportSummaries();
  ASSERT_TRUE(UserBytes) << UserBytes.diag().str();

  for (std::string_view Bytes : {std::string_view(LibBytes),
                                 std::string_view(*UserBytes)}) {
    Result<SummaryBundle> B = SummaryBundle::deserialize(Bytes, Syms);
    ASSERT_TRUE(B) << B.diag().str();
    const size_t NumPatterns = u32At(Bytes, patternCountAt(Bytes));
    EXPECT_EQ(B->Patterns->size(), NumPatterns);
    std::vector<char> Used(NumPatterns, 0);
    auto Use = [&](PatternId Id) {
      if (Id != kInvalidPatternId)
        Used[Id] = 1;
    };
    for (const std::shared_ptr<const RunTrace> &T : B->Traces) {
      Use(T->Call);
      Use(T->PreSuccess);
      for (const TraceOp &Op : T->Ops)
        if (Op.namesPatterns()) {
          Use(Op.Call);
          Use(Op.Summary);
        }
    }
    EXPECT_EQ(std::count(Used.begin(), Used.end(), 1),
              static_cast<std::ptrdiff_t>(NumPatterns));
  }
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
  EXPECT_TRUE(B->Preds.empty());

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
  // both its own traces and the surviving imported ones.
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
  // Traces rooted at main/3 are in there alongside the library's rev/2.
  auto RootedAt = [&](std::string_view Name, int32_t Arity) {
    for (const std::shared_ptr<const RunTrace> &T : B->Traces)
      for (const SummaryBundle::Pred &P : B->Preds)
        if (P.Pid == T->Pred && P.Sig.Name == Name && P.Sig.Arity == Arity)
          return true;
    return false;
  };
  EXPECT_TRUE(RootedAt("main", 3));
  EXPECT_TRUE(RootedAt("rev", 2));
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
     0x8f79b0baf26fe06full,
     0xd8ea5d5304456cafull,
     0x57c40968a6a84095ull},
    {"ops8",
     0xb70599f2f207ba01ull,
     0x2cc320c8a8b0b58dull,
     0xdb9dcc4aec47275aull},
    {"times10",
     0xbac28ba27b139cbeull,
     0xf9223149024d05e7ull,
     0xb2aef27e46e85028ull},
    {"divide10",
     0xe6ca7f8a47138f13ull,
     0x7dff6e6ee59b2343ull,
     0x829bfaeebe67e2daull},
    {"tak",
     0xa963a065a543f531ull,
     0xa112430f286ae4b3ull,
     0x9ef48e5c851525e7ull},
    {"nreverse",
     0x1893769cfdf3bb5cull,
     0x3e6ccc5d91b35c15ull,
     0xe9c435c41d564c77ull},
    {"qsort",
     0xdd4babf8dd6b06deull,
     0x29073743403981d2ull,
     0x947e81d1ed00446bull},
    {"query",
     0x25025b03ff81d665ull,
     0x377598cdbbb533full,
     0x4ce0f4e97e2cde3ull},
    {"zebra",
     0xf510e441075dfd81ull,
     0x3f92440c1b9e8502ull,
     0xdc06e8f285ec88bull},
    {"serialise",
     0xe073e511db22ac76ull,
     0xc1dc35a18ade3ad0ull,
     0x2dbb6f128a2d19e9ull},
    {"queens_8",
     0xb93a9db4f3ba960eull,
     0xdbf83aae275ed7d9ull,
     0x7718ab2d57fc4a14ull},
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
  EXPECT_EQ(Bytes->size(), 677215u);
  EXPECT_EQ(hashBytes(*Bytes), 0xb566d617a9a5ba97ull)
      << "export = 0x" << std::hex << hashBytes(*Bytes);

  AnalysisSession Warm(L->Program, O);
  ASSERT_TRUE(Warm.importSummaries(*Bytes));
  ASSERT_TRUE(Warm.analyze("drive/1"));
  Result<std::string> Again = Warm.exportSummaries();
  ASSERT_TRUE(Again) << Again.diag().str();
  EXPECT_EQ(hashBytes(*Again), 0xb566d617a9a5ba97ull)
      << "re-export = 0x" << std::hex << hashBytes(*Again);
}

} // namespace
