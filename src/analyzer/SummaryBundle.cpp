//===- analyzer/SummaryBundle.cpp - Exported analysis summaries -----------===//

#include "analyzer/SummaryBundle.h"

#include "analyzer/PatternInterner.h"

#include <bit>
#include <cassert>
#include <cstring>

using namespace awam;

namespace {

constexpr char kMagic[4] = {'A', 'W', 'S', 'B'};

/// Byte offsets of the header's checksum and of the payload it covers.
constexpr size_t kChecksumAt = 8; // after the magic and the version
constexpr size_t kPayloadAt = kChecksumAt + 8;

/// The byte format's "no pattern" reference.
constexpr uint32_t kNone = 0xFFFFFFFFu;
static_assert(kNone == kInvalidPatternId, "ids and references share none");

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
  uint8_t u8() {
    if (!need(1))
      return 0;
    return static_cast<uint8_t>(*P++);
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

// --- pattern table ------------------------------------------------------
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
// count by the bytes left before anything is reserved: a pattern is three
// counts (3 * 4); a node is a kind, a symbol flag, a number and a child
// slice (1 + 1 + 8 + 4 + 4); a child or root id is 4; an op is a kind, a
// flag and three ids or a pred and a step count (1 + 1 + 3 * 4), exactly.
constexpr uint64_t kMinPatternBytes = 12;
constexpr uint64_t kMinNodeBytes = 18;
constexpr uint64_t kMinIdBytes = 4;
constexpr uint64_t kOpBytes = 14;

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
    uint8_t Kind = R.u8();
    if (Kind > static_cast<uint8_t>(PatKind::StrP)) {
      R.Bad = true;
      return;
    }
    N.K = static_cast<PatKind>(Kind);
    bool HasSym = R.u8() != 0;
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
  // slice must land inside ChildStore, hold as many children as its
  // node's kind has (StrP any number), every root and child id must name a
  // node, and the child edges must form no cycle. Corrupt bytes become a
  // load error, never a bad access or an unbounded walk.
  auto NodeOk = [&](int32_t Id) {
    return Id >= 0 && static_cast<uint32_t>(Id) < NumNodes;
  };
  auto KindFits = [](const PatNode &N) {
    switch (N.K) {
    case PatKind::ListP:
      return N.ChildCount == 1;
    case PatKind::ConsP:
      return N.ChildCount == 2;
    case PatKind::StrP:
      return true;
    default:
      return N.ChildCount == 0;
    }
  };
  for (const PatNode &N : P.Nodes)
    if (N.ChildCount < 0 || N.ChildBegin < 0 ||
        static_cast<uint64_t>(N.ChildBegin) +
                static_cast<uint64_t>(N.ChildCount) >
            NumChildren ||
        !KindFits(N)) {
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
  // Acyclic iff repeatedly removing the nodes no remaining node points at
  // removes them all (Kahn's topological order, one pass over the edges).
  std::vector<uint32_t> InDegree(NumNodes, 0);
  for (const PatNode &N : P.Nodes)
    for (int32_t I = 0; I != N.ChildCount; ++I)
      ++InDegree[static_cast<size_t>(P.child(N, I))];
  std::vector<int32_t> Ready;
  for (uint32_t Id = 0; Id != NumNodes; ++Id)
    if (InDegree[Id] == 0)
      Ready.push_back(static_cast<int32_t>(Id));
  uint32_t Removed = 0;
  while (!Ready.empty()) {
    const PatNode &N = P.Nodes[static_cast<size_t>(Ready.back())];
    Ready.pop_back();
    ++Removed;
    for (int32_t I = 0; I != N.ChildCount; ++I)
      if (--InDegree[static_cast<size_t>(P.child(N, I))] == 0)
        Ready.push_back(P.child(N, I));
  }
  if (Removed != NumNodes)
    R.Bad = true;
}

/// Is \p Pid a key of the predicate-table index \p Listed?
bool isListed(const detail::FlatMap64 &Listed, int32_t Pid) {
  return Pid >= 0 && Listed.lookup(static_cast<uint64_t>(Pid)) !=
                         detail::FlatMap64::kEmpty;
}

/// Checks one parsed op, whose pattern fields still hold pattern-table
/// indexes, against what replay relies on: Memo and Enter ops name a
/// predicate listed in \p Listed and a calling pattern, Exit and Grow ops
/// name no predicate, Grow ops no calling pattern, every index is below
/// \p NumPatterns, Grow ops carry their summary, and no op follows the
/// Exit that closes the root frame (an Exit's fields hold its frame's
/// step count). \p Depth counts the open frames (1 = the root's) and is
/// updated. Returns the defect, or nullptr for a well-formed op.
const char *opDefect(const TraceOp &Op, int64_t &Depth,
                     const detail::FlatMap64 &Listed, size_t NumPatterns) {
  if (Depth == 0)
    return "trace op after the root frame returned";
  bool NamesPred = Op.K == TraceOp::Memo || Op.K == TraceOp::Enter;
  if (NamesPred ? !isListed(Listed, Op.Pred) : Op.Pred != -1)
    return "trace op with a missing, unlisted or stray predicate id";
  if (Op.namesPatterns()) {
    for (uint32_t Index : {Op.Call, Op.Summary})
      if (Index != kNone && Index >= NumPatterns)
        return "pattern index out of range";
    if (NamesPred && Op.Call == kNone)
      return "memo or enter op without a calling pattern";
    if (!NamesPred && Op.Call != kNone)
      return "grow op with a calling pattern";
    if (Op.K == TraceOp::Grow && Op.Summary == kNone)
      return "grow op without a summary";
  }
  if (Op.K == TraceOp::Enter)
    ++Depth;
  else if (Op.K == TraceOp::Exit)
    --Depth;
  return nullptr;
}

/// The header's checksum of \p Payload (see SummaryBundle::seal).
uint64_t checksum(std::string_view Payload) {
  // Eight bytes per step, read little-endian so every host computes the
  // same value. For a fixed word each step is a bijection of the running
  // hash (xor, odd multiplier, rotation), so two payloads of one length
  // that differ inside one word always hash differently.
  constexpr uint64_t kMul = 0x9fb21c651e98df25ull;
  uint64_t H = 0x6a09e667f3bcc908ull ^ Payload.size();
  auto Mix = [&](uint64_t W) { H = std::rotl((H ^ W) * kMul, 29); };
  auto Load = [](const char *P, size_t N) {
    uint64_t W = 0;
    for (size_t I = 0; I != N; ++I)
      W |= static_cast<uint64_t>(static_cast<unsigned char>(P[I])) << (8 * I);
    return W;
  };
  size_t At = 0;
  for (; Payload.size() - At >= 8; At += 8)
    Mix(Load(Payload.data() + At, 8));
  Mix(Load(Payload.data() + At, Payload.size() - At));
  // splitmix64's finalizer, so every input bit reaches every output bit.
  H = (H ^ (H >> 30)) * 0xbf58476d1ce4e5b9ull;
  H = (H ^ (H >> 27)) * 0x94d049bb133111ebull;
  return H ^ (H >> 31);
}

} // namespace

void SummaryBundle::seal(std::string &Bytes) {
  assert(Bytes.size() >= kPayloadAt && "a bundle holds a whole header");
  uint64_t Sum = checksum(std::string_view(Bytes).substr(kPayloadAt));
  for (size_t I = 0; I != 8; ++I)
    Bytes[kChecksumAt + I] = static_cast<char>((Sum >> (8 * I)) & 0xff);
}

std::string SummaryBundle::serialize(const SymbolTable &Syms) const {
  assert((Patterns || Traces.empty()) && "pattern ids need their table");
  // The traces are written first, to a buffer of their own, numbering the
  // patterns they use in order of first use — so the bytes do not depend
  // on how the exporting table numbered them — and the pattern table then
  // goes ahead of them.
  std::vector<uint32_t> Index(Patterns ? Patterns->size() : 0, kNone);
  std::vector<PatternId> Used;
  auto Ref = [&](PatternId Id) {
    if (Id == kInvalidPatternId)
      return kNone;
    if (Index[Id] == kNone) {
      Index[Id] = static_cast<uint32_t>(Used.size());
      Used.push_back(Id);
    }
    return Index[Id];
  };
  std::string Body;
  putU32(Body, static_cast<uint32_t>(Traces.size()));
  for (const std::shared_ptr<const RunTrace> &T : Traces) {
    Body.push_back(T->Frame ? 1 : 0);
    putU32(Body, static_cast<uint32_t>(T->Pred));
    putU32(Body, Ref(T->Call));
    putU32(Body, Ref(T->PreSuccess));
    putU64(Body, T->Steps);
    putU32(Body, static_cast<uint32_t>(T->Ops.size()));
    for (const TraceOp &Op : T->Ops) {
      bool Ids = Op.namesPatterns();
      Body.push_back(static_cast<char>(Op.K));
      Body.push_back(Op.Created ? 1 : 0);
      putU32(Body, static_cast<uint32_t>(Op.Pred));
      putU32(Body, Ids ? Ref(Op.Call) : Op.Call);
      putU32(Body, Ids ? Ref(Op.Summary) : Op.Summary);
    }
  }

  std::string Out;
  Out.append(kMagic, 4);
  putU32(Out, kVersion);
  putU64(Out, 0); // the checksum: seal() writes it over the whole payload
  putStr(Out, DomainName);
  putU32(Out, static_cast<uint32_t>(DepthLimit));
  putU32(Out, static_cast<uint32_t>(Preds.size()));
  for (const Pred &P : Preds) {
    putU32(Out, static_cast<uint32_t>(P.Pid));
    putStr(Out, P.Sig.Name);
    putU32(Out, static_cast<uint32_t>(P.Sig.Arity));
    putU64(Out, P.CodeHash);
  }
  putU32(Out, static_cast<uint32_t>(Used.size()));
  for (PatternId Id : Used)
    putPattern(Out, Patterns->pattern(Id), Syms);
  Out += Body;
  seal(Out);
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
  uint64_t Sum = R.u64();
  if (R.Bad)
    return makeError("summary bundle: truncated or corrupt");
  if (Sum != checksum(std::string_view(R.P, static_cast<size_t>(R.End - R.P))))
    return makeError("summary bundle: checksum mismatch (corrupt bytes)");

  SummaryBundle B;
  B.DomainName = R.str();
  B.DepthLimit = static_cast<int32_t>(R.u32());

  // Trace predicate ids are keys of the predicate table: negative,
  // duplicate and unlisted ids are corrupt. Ids keep their exported
  // values (so a bundle re-serializes to its own bytes); consumers resolve
  // them through the table and size nothing by them.
  detail::FlatMap64 Listed; // pid -> table position
  uint32_t NumPreds = R.u32();
  for (uint32_t I = 0; I != NumPreds && !R.Bad; ++I) {
    Pred P;
    P.Pid = static_cast<int32_t>(R.u32());
    P.Sig.Name = R.str();
    P.Sig.Arity = static_cast<int32_t>(R.u32());
    P.CodeHash = R.u64();
    if (R.Bad)
      break;
    if (P.Pid < 0 || isListed(Listed, P.Pid))
      return makeError("summary bundle: negative or duplicate trace "
                       "predicate id " +
                       std::to_string(P.Pid));
    Listed.insert(static_cast<uint64_t>(P.Pid), I);
    B.Preds.push_back(std::move(P));
  }

  // The pattern table, interned into a table the bundle owns. Ids[I] is
  // the id of table entry I (equal entries, which no export writes,
  // share one id).
  auto Patterns = std::make_shared<PatternInterner>();
  B.Patterns = Patterns;
  std::vector<PatternId> Ids;
  uint32_t NumPatterns = R.u32();
  if (R.need(NumPatterns * kMinPatternBytes))
    Ids.reserve(NumPatterns);
  Pattern Scratch;
  for (uint32_t I = 0; I != NumPatterns && !R.Bad; ++I) {
    getPattern(R, Syms, Scratch);
    if (!R.Bad)
      Ids.push_back(Patterns->intern(Scratch));
  }
  auto IdOf = [&](uint32_t Index) {
    return Index == kNone ? kInvalidPatternId : Ids[Index];
  };

  uint32_t NumTraces = R.u32();
  for (uint32_t I = 0; I != NumTraces && !R.Bad; ++I) {
    auto Defective = [&](std::string_view Defect) {
      return makeError("summary bundle: trace " + std::to_string(I) + ": " +
                       std::string(Defect));
    };
    auto T = std::make_shared<RunTrace>();
    uint8_t Kind = R.u8();
    T->Frame = Kind == 1;
    T->Pred = static_cast<int32_t>(R.u32());
    uint32_t Call = R.u32();
    uint32_t PreSuccess = R.u32();
    T->Steps = R.u64();
    uint32_t NumOps = R.u32();
    // Ops are fixed records, so none is read past the bytes checked here.
    if (R.Bad || !R.need(NumOps * kOpBytes))
      break;
    if (Kind > 1)
      return Defective("unknown trace kind " + std::to_string(Kind));
    if (!isListed(Listed, T->Pred))
      return Defective("trace root names an unlisted predicate id");
    if (Call == kNone)
      return Defective("trace root without a calling pattern");
    if (Call >= Ids.size() || (PreSuccess != kNone && PreSuccess >= Ids.size()))
      return Defective("pattern index out of range");
    T->Call = IdOf(Call);
    T->PreSuccess = IdOf(PreSuccess);
    T->Ops.reserve(NumOps);
    int64_t Depth = 1; // the root frame
    for (uint32_t J = 0; J != NumOps; ++J) {
      TraceOp Op;
      uint8_t Kind = R.u8();
      if (Kind > TraceOp::Grow)
        return makeError("summary bundle: unknown trace op kind " +
                         std::to_string(Kind));
      Op.K = static_cast<TraceOp::Kind>(Kind);
      Op.Created = R.u8() != 0;
      Op.Pred = static_cast<int32_t>(R.u32());
      Op.Call = R.u32();
      Op.Summary = R.u32();
      if (const char *Defect = opDefect(Op, Depth, Listed, Ids.size()))
        return Defective(Defect);
      if (Op.namesPatterns()) {
        Op.Call = IdOf(Op.Call);
        Op.Summary = IdOf(Op.Summary);
      }
      T->Ops.push_back(Op);
    }
    if (Depth != 0)
      return Defective("unbalanced trace (root frame never returns)");
    B.Traces.push_back(std::move(T));
  }

  if (R.Bad)
    return makeError("summary bundle: truncated or corrupt");
  if (R.P != R.End)
    return makeError("summary bundle: trailing bytes after payload");
  return B;
}
