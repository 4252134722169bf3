//===- compiler/CodeModule.cpp --------------------------------------------===//

#include "compiler/CodeModule.h"

#include <algorithm>
#include <array>
#include <bit>

using namespace awam;

namespace {

uint64_t nameArityKey(Symbol Name, int32_t Arity) {
  return uint64_t(Name) << 32 | static_cast<uint32_t>(Arity);
}

/// A constant's key in its index (CodeModule::constIndex).
uint64_t constKey(const ConstOperand &C) {
  return C.K == ConstOperand::AtomK ? uint64_t(C.Name)
                                    : static_cast<uint64_t>(C.Int);
}

} // namespace

void CodeModule::copyPoolsFrom(const CodeModule &M) {
  // The copy's users (the specializer) intern nothing, so the indexes are
  // left empty and built by the first intern, if any.
  Consts = M.Consts;
  Functors = M.Functors;
}

detail::FlatMap64 &CodeModule::constIndex(const ConstOperand &C) {
  return C.K == ConstOperand::AtomK ? AtomIndex : IntIndex;
}

int32_t CodeModule::internConst(ConstOperand C) {
  detail::FlatMap64 &Index = constIndex(C);
  uint64_t Key = constKey(C);
  uint32_t Hit = Index.lookup(Key);
  // An index holds one entry per pool entry, except after copyPoolsFrom
  // left it empty: then the miss indexes the copied pool and looks again.
  if (Hit == detail::FlatMap64::kEmpty &&
      AtomIndex.size() + IntIndex.size() != Consts.size()) {
    for (int32_t I = 0; I != numConsts(); ++I)
      constIndex(Consts[I]).insert(constKey(Consts[I]),
                                   static_cast<uint32_t>(I));
    Hit = Index.lookup(Key);
  }
  if (Hit != detail::FlatMap64::kEmpty)
    return static_cast<int32_t>(Hit);
  int32_t Idx = numConsts();
  Consts.push_back(C);
  Index.insert(Key, static_cast<uint32_t>(Idx));
  return Idx;
}

int32_t CodeModule::internFunctor(FunctorArity F) {
  uint64_t Key = nameArityKey(F.Name, F.Arity);
  uint32_t Hit = FunctorIndex.lookup(Key);
  // As in internConst.
  if (Hit == detail::FlatMap64::kEmpty &&
      FunctorIndex.size() != Functors.size()) {
    for (int32_t I = 0; I != numFunctors(); ++I)
      FunctorIndex.insert(nameArityKey(Functors[I].Name, Functors[I].Arity),
                          static_cast<uint32_t>(I));
    Hit = FunctorIndex.lookup(Key);
  }
  if (Hit != detail::FlatMap64::kEmpty)
    return static_cast<int32_t>(Hit);
  int32_t Idx = numFunctors();
  Functors.push_back(F);
  FunctorIndex.insert(Key, static_cast<uint32_t>(Idx));
  return Idx;
}

int32_t CodeModule::predicateId(Symbol Name, int Arity) {
  uint64_t Key = nameArityKey(Name, Arity);
  uint32_t Hit = PredIndex.lookup(Key);
  if (Hit != detail::FlatMap64::kEmpty)
    return static_cast<int32_t>(Hit);
  int32_t Pid = numPredicates();
  PredicateInfo &P = Preds.emplace_back();
  P.Name = Name;
  P.Arity = Arity;
  PredIndex.insert(Key, static_cast<uint32_t>(Pid));
  return Pid;
}

int32_t CodeModule::findPredicate(Symbol Name, int Arity) const {
  uint32_t Hit = PredIndex.lookup(nameArityKey(Name, Arity));
  return Hit == detail::FlatMap64::kEmpty ? -1 : static_cast<int32_t>(Hit);
}

std::string CodeModule::predicateLabel(int32_t Id) const {
  const PredicateInfo &P = Preds[Id];
  return std::string(Syms->name(P.Name)) + "/" + std::to_string(P.Arity);
}

namespace {

// FNV-1a, 64-bit.
constexpr uint64_t kFnvPrime = 1099511628211ull;

inline void fnvBytes(uint64_t &H, const void *Data, size_t N) {
  const auto *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I != N; ++I) {
    H ^= P[I];
    H *= kFnvPrime;
  }
}

// Fingerprints hash an int64 as its 8 bytes in host order, which is
// little-endian on every supported target; fnvInt's shortcut relies on it.
static_assert(std::endian::native == std::endian::little,
              "fingerprints hash int64 operands as little-endian bytes");

/// kFnvPrimePow[K] = kFnvPrime^K (mod 2^64).
constexpr std::array<uint64_t, 9> kFnvPrimePow = [] {
  std::array<uint64_t, 9> P{};
  P[0] = 1;
  for (size_t K = 1; K != P.size(); ++K)
    P[K] = P[K - 1] * kFnvPrime;
  return P;
}();

/// fnvBytes over the 8 little-endian bytes of \p V, bit for bit. XOR with
/// a zero byte changes nothing, so once the bytes left are all zero (the
/// high bytes of a small operand) their rounds fold into one multiply by
/// a power of the prime.
inline void fnvInt(uint64_t &H, int64_t V) {
  uint64_t U = static_cast<uint64_t>(V);
  size_t Left = 8;
  for (; U != 0; U >>= 8, --Left) {
    H ^= U & 0xff;
    H *= kFnvPrime;
  }
  H *= kFnvPrimePow[Left];
}

inline void fnvStr(uint64_t &H, std::string_view S) {
  fnvInt(H, static_cast<int64_t>(S.size()));
  fnvBytes(H, S.data(), S.size());
}

} // namespace

uint64_t CodeModule::fingerprint() const {
  uint64_t H = 1469598103934665603ull;
  // Defined predicates in name/arity order, so an id permutation (ids are
  // assigned in first-reference order, which edits can shuffle) does not
  // perturb the fingerprint.
  std::vector<int32_t> Order;
  for (int32_t I = 0; I != numPredicates(); ++I)
    if (!Preds[I].Clauses.empty())
      Order.push_back(I);
  std::sort(Order.begin(), Order.end(), [&](int32_t A, int32_t B) {
    const PredicateInfo &PA = Preds[A];
    const PredicateInfo &PB = Preds[B];
    std::string_view NA = Syms->name(PA.Name);
    std::string_view NB = Syms->name(PB.Name);
    return NA != NB ? NA < NB : PA.Arity < PB.Arity;
  });
  for (int32_t Id : Order)
    hashPredicate(H, Id);
  return H;
}

uint64_t CodeModule::predicateFingerprint(int32_t Id) const {
  uint64_t H = 1469598103934665603ull;
  hashPredicate(H, Id);
  return H;
}

void CodeModule::hashPredicate(uint64_t &H, int32_t Id) const {
  const PredicateInfo &P = Preds[Id];
  fnvStr(H, Syms->name(P.Name));
  fnvInt(H, P.Arity);
  fnvInt(H, static_cast<int64_t>(P.Clauses.size()));
  for (const ClauseInfo &C : P.Clauses) {
    fnvInt(H, C.NumInstr);
    for (int32_t K = 0; K != C.NumInstr; ++K) {
      const Instruction &I = Code[C.Entry + K];
      fnvInt(H, static_cast<int64_t>(I.Op));
      // Resolve pool/table indices to their meaning — the same
      // resolution diffPrograms compares by — so two compilations of
      // equivalent source fingerprint equal even if pool layouts differ.
      switch (I.Op) {
      case Opcode::GetConst:
      case Opcode::PutConst:
      case Opcode::UnifyConst: {
        const ConstOperand &Cst = Consts[I.A];
        fnvInt(H, Cst.K);
        if (Cst.K == ConstOperand::AtomK)
          fnvStr(H, Syms->name(Cst.Name));
        else
          fnvInt(H, Cst.Int);
        fnvInt(H, I.B);
        break;
      }
      case Opcode::GetStructure:
      case Opcode::PutStructure: {
        const FunctorArity &F = Functors[I.A];
        fnvStr(H, Syms->name(F.Name));
        fnvInt(H, F.Arity);
        fnvInt(H, I.B);
        break;
      }
      case Opcode::Call:
      case Opcode::Execute: {
        const PredicateInfo &Callee = Preds[I.A];
        fnvStr(H, Syms->name(Callee.Name));
        fnvInt(H, Callee.Arity);
        break;
      }
      default:
        fnvInt(H, I.A);
        fnvInt(H, I.B);
        break;
      }
    }
  }
}
