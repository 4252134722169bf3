//===- analyzer/SummaryBundle.cpp - Exported analysis summaries -----------===//

#include "analyzer/SummaryBundle.h"

#include "analyzer/PatternInterner.h"

#include <cassert>
#include <cstring>

using namespace awam;

namespace {

constexpr char kMagic[4] = {'A', 'W', 'S', 'B'};

// --- little-endian primitive writers/readers ----------------------------
// Fixed-width little-endian keeps the byte format architecture-independent
// (the CI matrix covers clang and gcc; a bundle written by either loads in
// the other).

void putU32(std::string &Out, uint32_t V) {
  for (int I = 0; I != 4; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

void putU64(std::string &Out, uint64_t V) {
  for (int I = 0; I != 8; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

void putI64(std::string &Out, int64_t V) {
  putU64(Out, static_cast<uint64_t>(V));
}

void putStr(std::string &Out, std::string_view S) {
  putU32(Out, static_cast<uint32_t>(S.size()));
  Out.append(S.data(), S.size());
}

struct Reader {
  const char *P;
  const char *End;
  bool Bad = false;

  bool need(size_t N) {
    if (static_cast<size_t>(End - P) < N) {
      Bad = true;
      return false;
    }
    return true;
  }
  uint32_t u32() {
    if (!need(4))
      return 0;
    uint32_t V = 0;
    for (int I = 0; I != 4; ++I)
      V |= static_cast<uint32_t>(static_cast<unsigned char>(P[I]))
           << (8 * I);
    P += 4;
    return V;
  }
  uint64_t u64() {
    if (!need(8))
      return 0;
    uint64_t V = 0;
    for (int I = 0; I != 8; ++I)
      V |= static_cast<uint64_t>(static_cast<unsigned char>(P[I]))
           << (8 * I);
    P += 8;
    return V;
  }
  int64_t i64() { return static_cast<int64_t>(u64()); }
  /// A length-prefixed string, viewed in place.
  std::string_view strView() {
    uint32_t N = u32();
    if (!need(N))
      return {};
    std::string_view S(P, N);
    P += N;
    return S;
  }
  std::string str() { return std::string(strView()); }
};

// --- pattern section ----------------------------------------------------
// Node symbols serialize as name strings (symbol ids are table-local); the
// reader interns into its own table. Node order and child slices copy
// verbatim — canonical node numbering is structural (first-visit from the
// roots), so it is already symbol-table-independent.

void putPattern(std::string &Out, const PatternRef &P,
                const SymbolTable &Syms) {
  putU32(Out, static_cast<uint32_t>(P.NumNodes));
  for (size_t I = 0; I != P.NumNodes; ++I) {
    const PatNode &N = P.Nodes[I];
    Out.push_back(static_cast<char>(N.K));
    bool HasSym = N.K == PatKind::ConP || N.K == PatKind::StrP;
    Out.push_back(HasSym ? 1 : 0);
    if (HasSym)
      putStr(Out, Syms.name(N.Sym));
    putI64(Out, N.Num);
    // ChildBegin ships explicitly: slices need not be laid out in node
    // order (canonicalization and lub build layouts of their own), so it
    // cannot be recomputed by accumulation on the way back in.
    putU32(Out, static_cast<uint32_t>(N.ChildBegin));
    putU32(Out, static_cast<uint32_t>(N.ChildCount));
  }
  size_t NumChildren = childSlotsOf(P);
  putU32(Out, static_cast<uint32_t>(NumChildren));
  for (size_t I = 0; I != NumChildren; ++I)
    putU32(Out, static_cast<uint32_t>(P.ChildStore[I]));
  putU32(Out, static_cast<uint32_t>(P.NumRoots));
  for (size_t I = 0; I != P.NumRoots; ++I)
    putU32(Out, static_cast<uint32_t>(P.Roots[I]));
}

// Lower bounds on the bytes one serialized item takes, which bound every
// count by the bytes left before anything is reserved: a node is a kind,
// a symbol flag, a number and a child slice (1 + 1 + 8 + 4 + 4); a child
// or root id is 4; an op is a kind, a flag, a pid, three empty pattern
// counts and an absent summary (1 + 1 + 4 + 12 + 1).
constexpr uint64_t kMinNodeBytes = 18;
constexpr uint64_t kMinIdBytes = 4;
constexpr uint64_t kMinOpBytes = 19;

/// Reads one pattern into \p P (its vectors are reused). A truncated or
/// malformed pattern sets R.Bad.
void getPattern(Reader &R, SymbolTable &Syms, Pattern &P) {
  P.Nodes.clear();
  P.ChildStore.clear();
  P.Roots.clear();
  uint32_t NumNodes = R.u32();
  if (!R.need(NumNodes * kMinNodeBytes))
    return;
  P.Nodes.reserve(NumNodes);
  for (uint32_t I = 0; I != NumNodes && !R.Bad; ++I) {
    PatNode N;
    if (!R.need(2))
      break;
    uint8_t Kind = static_cast<uint8_t>(*R.P++);
    if (Kind > static_cast<uint8_t>(PatKind::StrP)) {
      R.Bad = true;
      return;
    }
    N.K = static_cast<PatKind>(Kind);
    bool HasSym = *R.P++ != 0;
    if (HasSym)
      N.Sym = Syms.intern(R.strView());
    N.Num = R.i64();
    N.ChildBegin = static_cast<int32_t>(R.u32());
    N.ChildCount = static_cast<int32_t>(R.u32());
    P.Nodes.push_back(N);
  }
  uint32_t NumChildren = R.u32();
  if (!R.need(NumChildren * kMinIdBytes))
    return;
  P.ChildStore.reserve(NumChildren);
  for (uint32_t I = 0; I != NumChildren && !R.Bad; ++I)
    P.ChildStore.push_back(static_cast<int32_t>(R.u32()));
  uint32_t NumRoots = R.u32();
  if (!R.need(NumRoots * kMinIdBytes))
    return;
  P.Roots.reserve(NumRoots);
  for (uint32_t I = 0; I != NumRoots && !R.Bad; ++I)
    P.Roots.push_back(static_cast<int32_t>(R.u32()));
  if (R.Bad)
    return;
  // Index hygiene before anything downstream walks the DAG: every child
  // slice must land inside ChildStore, and every root and child id must
  // name a node. Corrupt bytes become a load error, never a bad access.
  auto NodeOk = [&](int32_t Id) {
    return Id >= 0 && static_cast<uint32_t>(Id) < NumNodes;
  };
  for (const PatNode &N : P.Nodes)
    if (N.ChildCount < 0 || N.ChildBegin < 0 ||
        static_cast<uint64_t>(N.ChildBegin) +
                static_cast<uint64_t>(N.ChildCount) >
            NumChildren) {
      R.Bad = true;
      return;
    }
  for (int32_t C : P.ChildStore)
    if (!NodeOk(C)) {
      R.Bad = true;
      return;
    }
  for (int32_t Root : P.Roots)
    if (!NodeOk(Root)) {
      R.Bad = true;
      return;
    }
}

/// Reads patterns into one table, one entry per distinct pattern.
struct PatternReader {
  Reader &R;
  SymbolTable &Syms;
  PatternInterner &Table;
  Pattern Scratch;

  /// Reads a pattern and returns its id, or kInvalidPatternId with R.Bad
  /// set. With \p Keep false the pattern is only checked.
  PatternId pattern(bool Keep = true) {
    getPattern(R, Syms, Scratch);
    return R.Bad || !Keep ? kInvalidPatternId : Table.intern(Scratch);
  }

  /// A presence flag and, when set, a pattern (kInvalidPatternId: none).
  PatternId optPattern() {
    if (!R.need(1))
      return kInvalidPatternId;
    bool Has = *R.P++ != 0;
    return Has ? pattern() : kInvalidPatternId;
  }
};

void putSig(std::string &Out, const PredSig &S) {
  putStr(Out, S.Name);
  putU32(Out, static_cast<uint32_t>(S.Arity));
}

PredSig getSig(Reader &R) {
  PredSig S;
  S.Name = R.str();
  S.Arity = static_cast<int32_t>(R.u32());
  return S;
}

/// Is \p Pid a key of the trace-sig index \p Listed?
bool isListed(const detail::FlatMap64 &Listed, int32_t Pid) {
  return Pid >= 0 && Listed.lookup(static_cast<uint64_t>(Pid)) !=
                         detail::FlatMap64::kEmpty;
}

/// Checks one parsed op against what replay relies on: Memo and Enter ops
/// name a predicate listed in \p Listed, Exit and Grow ops name none, Grow
/// ops carry their summary, and no op follows the Exit that closes the
/// root frame. \p Depth counts the open frames (1 = the root's) and is
/// updated. Returns the defect, or nullptr for a well-formed op.
const char *opDefect(const TraceOp &Op, int64_t &Depth,
                     const detail::FlatMap64 &Listed) {
  if (Depth == 0)
    return "trace op after the root frame returned";
  bool NamesPred = Op.K == TraceOp::Memo || Op.K == TraceOp::Enter;
  if (NamesPred ? !isListed(Listed, Op.Pred) : Op.Pred != -1)
    return "trace op with a missing, unlisted or stray predicate id";
  if (Op.K == TraceOp::Grow && Op.Summary == kInvalidPatternId)
    return "grow op without a summary";
  if (Op.K == TraceOp::Enter)
    ++Depth;
  else if (Op.K == TraceOp::Exit)
    --Depth;
  return nullptr;
}

} // namespace

std::string SummaryBundle::serialize(const SymbolTable &Syms) const {
  assert((Patterns || (Summaries.empty() && Traces.empty())) &&
         "pattern ids need their table");
  std::string Out;
  // Exit and Grow ops carry no calling pattern; they serialize an empty
  // one.
  auto Pat = [&](PatternId Id) {
    return Id == kInvalidPatternId ? PatternRef() : Patterns->pattern(Id);
  };
  auto PutOpt = [&](PatternId Id) {
    Out.push_back(Id != kInvalidPatternId ? 1 : 0);
    if (Id != kInvalidPatternId)
      putPattern(Out, Pat(Id), Syms);
  };
  Out.append(kMagic, 4);
  putU32(Out, kVersion);
  putStr(Out, DomainName);
  putU32(Out, static_cast<uint32_t>(DepthLimit));
  putU64(Out, ModuleFingerprint);

  putU32(Out, static_cast<uint32_t>(Summaries.size()));
  for (const Summary &S : Summaries) {
    putSig(Out, S.Sig);
    putPattern(Out, Pat(S.Call), Syms);
    PutOpt(S.Success);
  }

  putU32(Out, static_cast<uint32_t>(PredCodes.size()));
  for (const PredCode &P : PredCodes) {
    putSig(Out, P.Sig);
    putU64(Out, P.CodeFp);
  }

  putU32(Out, static_cast<uint32_t>(TraceSigs.size()));
  for (const auto &[Pid, Sig] : TraceSigs) {
    putU32(Out, static_cast<uint32_t>(Pid));
    putSig(Out, Sig);
  }

  putU32(Out, static_cast<uint32_t>(Traces.size()));
  for (const std::shared_ptr<const RunTrace> &T : Traces) {
    putU32(Out, static_cast<uint32_t>(T->Pred));
    putPattern(Out, Pat(T->Call), Syms);
    PutOpt(T->PreSuccess);
    putU64(Out, T->Steps);
    putU64(Out, T->Activations);
    putU32(Out, static_cast<uint32_t>(T->Ops.size()));
    for (const TraceOp &Op : T->Ops) {
      Out.push_back(static_cast<char>(Op.K));
      Out.push_back(Op.Created ? 1 : 0);
      putU32(Out, static_cast<uint32_t>(Op.Pred));
      putPattern(Out, Pat(Op.Call), Syms);
      PutOpt(Op.Summary);
    }
  }
  return Out;
}

Result<SummaryBundle> SummaryBundle::deserialize(std::string_view Bytes,
                                                 SymbolTable &Syms) {
  Reader R{Bytes.data(), Bytes.data() + Bytes.size()};
  if (!R.need(4) || std::memcmp(R.P, kMagic, 4) != 0)
    return makeError("summary bundle: bad magic (not a bundle file)");
  R.P += 4;
  uint32_t Version = R.u32();
  if (Version != kVersion)
    return makeError("summary bundle: unsupported format version " +
                     std::to_string(Version) + " (expected " +
                     std::to_string(kVersion) + ")");

  SummaryBundle B;
  B.DomainName = R.str();
  B.DepthLimit = static_cast<int32_t>(R.u32());
  B.ModuleFingerprint = R.u64();
  auto Patterns = std::make_shared<PatternInterner>();
  B.Patterns = Patterns;
  PatternReader PR{R, Syms, *Patterns, {}};

  uint32_t NumSummaries = R.u32();
  for (uint32_t I = 0; I != NumSummaries && !R.Bad; ++I) {
    Summary S;
    S.Sig = getSig(R);
    S.Call = PR.pattern();
    S.Success = PR.optPattern();
    B.Summaries.push_back(std::move(S));
  }

  uint32_t NumCodes = R.u32();
  for (uint32_t I = 0; I != NumCodes && !R.Bad; ++I) {
    PredCode P;
    P.Sig = getSig(R);
    P.CodeFp = R.u64();
    B.PredCodes.push_back(std::move(P));
  }

  // Trace predicate ids are keys of the sig table: negative, duplicate
  // and unlisted ids are corrupt. Ids keep their exported values (so a
  // bundle re-serializes to its own bytes); consumers resolve them through
  // the table and size nothing by them.
  detail::FlatMap64 Listed; // pid -> listing position
  uint32_t NumSigs = R.u32();
  for (uint32_t I = 0; I != NumSigs && !R.Bad; ++I) {
    int32_t Pid = static_cast<int32_t>(R.u32());
    PredSig Sig = getSig(R);
    if (R.Bad)
      break;
    if (Pid < 0 || isListed(Listed, Pid))
      return makeError("summary bundle: negative or duplicate trace "
                       "predicate id " +
                       std::to_string(Pid));
    Listed.insert(static_cast<uint64_t>(Pid), I);
    B.TraceSigs.emplace_back(Pid, std::move(Sig));
  }

  uint32_t NumTraces = R.u32();
  for (uint32_t I = 0; I != NumTraces && !R.Bad; ++I) {
    auto T = std::make_shared<RunTrace>();
    T->Pred = static_cast<int32_t>(R.u32());
    if (!R.Bad && !isListed(Listed, T->Pred))
      return makeError("summary bundle: trace " + std::to_string(I) +
                       ": trace root names an unlisted predicate id");
    T->Call = PR.pattern();
    T->PreSuccess = PR.optPattern();
    T->Steps = R.u64();
    T->Activations = R.u64();
    uint32_t NumOps = R.u32();
    if (!R.need(NumOps * kMinOpBytes))
      break;
    T->Ops.reserve(NumOps);
    int64_t Depth = 1; // the root frame
    for (uint32_t J = 0; J != NumOps && !R.Bad; ++J) {
      TraceOp Op;
      if (!R.need(2))
        break;
      uint8_t Kind = static_cast<uint8_t>(*R.P++);
      if (Kind > TraceOp::Grow)
        return makeError("summary bundle: unknown trace op kind " +
                         std::to_string(Kind));
      Op.K = static_cast<TraceOp::Kind>(Kind);
      Op.Created = *R.P++ != 0;
      Op.Pred = static_cast<int32_t>(R.u32());
      // Only Memo and Enter ops have a calling pattern; the empty one the
      // others carry is checked and dropped.
      Op.Call = PR.pattern(Op.K == TraceOp::Memo || Op.K == TraceOp::Enter);
      Op.Summary = PR.optPattern();
      if (R.Bad)
        break;
      if (const char *Defect = opDefect(Op, Depth, Listed))
        return makeError("summary bundle: trace " + std::to_string(I) +
                         ": " + Defect);
      T->Ops.push_back(std::move(Op));
    }
    if (R.Bad)
      break;
    if (Depth != 0)
      return makeError("summary bundle: trace " + std::to_string(I) +
                       ": unbalanced trace (root frame never returns)");
    B.Traces.push_back(std::move(T));
  }

  if (R.Bad)
    return makeError("summary bundle: truncated or corrupt");
  if (R.P != R.End)
    return makeError("summary bundle: trailing bytes after payload");
  return B;
}
