//===- compiler/CodeModule.cpp --------------------------------------------===//

#include "compiler/CodeModule.h"

#include <algorithm>
#include <array>
#include <bit>

using namespace awam;

int32_t CodeModule::internConst(ConstOperand C) {
  auto [It, Inserted] =
      ConstIndex.try_emplace(C, static_cast<int32_t>(Consts.size()));
  if (Inserted)
    Consts.push_back(C);
  return It->second;
}

int32_t CodeModule::internFunctor(FunctorArity F) {
  auto [It, Inserted] =
      FunctorIndex.try_emplace(F, static_cast<int32_t>(Functors.size()));
  if (Inserted)
    Functors.push_back(F);
  return It->second;
}

int32_t CodeModule::predicateId(Symbol Name, int Arity) {
  auto [It, Inserted] = PredIndex.try_emplace(
      FunctorArity{Name, static_cast<int32_t>(Arity)},
      static_cast<int32_t>(Preds.size()));
  if (Inserted) {
    PredicateInfo P;
    P.Name = Name;
    P.Arity = Arity;
    Preds.push_back(P);
  }
  return It->second;
}

int32_t CodeModule::findPredicate(Symbol Name, int Arity) const {
  auto It = PredIndex.find(FunctorArity{Name, static_cast<int32_t>(Arity)});
  return It == PredIndex.end() ? -1 : It->second;
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
