//===- compiler/Specializer.cpp - Analysis-directed code rewriting --------===//
//
// Rewrite catalogue (licenses in DESIGN.md §17):
//
//   R1  fusion        a get_list/get_structure whose argument register has
//                     a known binding state, plus its contiguous unify
//                     operand words, becomes one superinstruction. The
//                     operand words are the *original* unify instructions,
//                     executed by the machine's shared unify-op helper, so
//                     semantics are identical by construction.
//   R2  flag bits     get instructions on registers with known states carry
//                     specflag bits; the machine counts fact-held fast
//                     paths, and the bits never change behavior.
//   R3  pruning       clauses whose first-argument shape is disjoint from
//                     every observed call shape are dropped.
//   R4  collapse      a try chain is truncated after its first entry whose
//                     head provably reaches a neck cut without a failing
//                     instruction (under the bucket's dispatch guarantee):
//                     once that clause's cut runs, later entries are dead.
//   R5  shortcut      when every call shape selects one switch_on_term
//                     bucket, the predicate enters that bucket directly;
//                     when no call can carry an unbound first argument, the
//                     var target becomes fail.
//   R6  cut deletion  a predicate reduced to a single clause can never have
//                     a chain choice point, so its neck cut is a no-op and
//                     is deleted.
//   R7  det facts     determinism classes annotate the listing and report;
//                     single-clause direct entry falls out of R3.
//
// The binding-state walk that licenses R1/R2/R4 is deliberately
// conservative: states degrade to Unknown on anything unclear, Free is
// move-only (copying a Free register demotes the source, so at most one
// tracked register ever holds a given unbound variable), and body
// instructions invalidate everything.
//
//===----------------------------------------------------------------------===//

#include "compiler/Specializer.h"

#include "compiler/Disasm.h"
#include "compiler/Indexing.h"
#include "support/StringUtil.h"

#include <cassert>

using namespace awam;

namespace {

/// Abstract binding state of one X register during the head walk.
enum class RegState : uint8_t {
  Unknown, ///< anything
  Free,    ///< an unbound variable no other tracked register aliases
  Nonvar,  ///< instantiated, shape unknown
  Ground,  ///< fully instantiated
};

uint8_t flagsOf(RegState S) {
  switch (S) {
  case RegState::Free:
    return specflag::KnownFree;
  case RegState::Nonvar:
    return specflag::KnownNonvar;
  case RegState::Ground:
    return specflag::KnownGround | specflag::KnownNonvar;
  case RegState::Unknown:
    break;
  }
  return 0;
}

/// Unify-operand words eligible for folding into a fused block.
bool isUnifyOp(Opcode Op) {
  switch (Op) {
  case Opcode::UnifyVariableX:
  case Opcode::UnifyVariableY:
  case Opcode::UnifyValueX:
  case Opcode::UnifyValueY:
  case Opcode::UnifyConst:
  case Opcode::UnifyVoid:
    return true;
  default:
    return false;
  }
}

/// First-argument indexing class of one clause, recovered from its head
/// code exactly like the original compiler derived it from the term (and
/// like the det machinery re-derives it).
struct ClauseShape {
  enum Kind : uint8_t { VarS, ConstS, ListS, StructS };
  Kind K = VarS;
  /// Pool index of the constant (ConstS) or the functor (StructS); the
  /// specialized module numbers its pools as the input does.
  int32_t Key = -1;
};

ClauseShape shapeFromCode(const CodeModule &M, const ClauseInfo &C) {
  for (int32_t A = C.Entry; A != C.Entry + C.NumInstr; ++A) {
    const Instruction &I = M.at(A);
    switch (I.Op) {
    case Opcode::GetConst:
      if (I.B == 0)
        return {ClauseShape::ConstS, I.A};
      break;
    case Opcode::GetList:
      if (I.A == 0)
        return {ClauseShape::ListS};
      break;
    case Opcode::GetStructure:
      if (I.B == 0)
        return {ClauseShape::StructS, I.A};
      break;
    case Opcode::GetVariableX:
    case Opcode::GetVariableY:
    case Opcode::GetValueX:
    case Opcode::GetValueY:
      if (I.B == 0)
        return {}; // a variable head argument matches anything
      break;
    case Opcode::PutVariableX:
    case Opcode::PutVariableY:
    case Opcode::PutValueX:
    case Opcode::PutValueY:
    case Opcode::PutConst:
    case Opcode::PutList:
    case Opcode::PutStructure:
    case Opcode::Call:
    case Opcode::Execute:
    case Opcode::Builtin:
    case Opcode::Proceed:
      return {}; // body reached: argument 0 was never constrained
    default:
      break;
    }
  }
  return {};
}

/// Can a first argument abstracted as \p S reach a clause head of shape
/// \p C at runtime? Mirrors the det machinery's classMatches, including
/// "a list shape covers the [] atom".
bool shapeMatches(const CallShape &S, const ClauseShape &C,
                  const CodeModule &M) {
  if (C.K == ClauseShape::VarS)
    return true;
  switch (S.K) {
  case CallShape::AnyShape:
  case CallShape::NonvarShape:
  case CallShape::VarShape:
    return true; // an unbound or shapeless argument unifies with any head
  case CallShape::ConstShape:
    return C.K == ClauseShape::ConstS &&
           (!S.Exact || S.Const == M.constAt(C.Key));
  case CallShape::ListShape:
    return C.K == ClauseShape::ListS ||
           (C.K == ClauseShape::ConstS &&
            M.constAt(C.Key).K == ConstOperand::AtomK &&
            M.symbols().name(M.constAt(C.Key).Name) == "[]");
  case CallShape::ConsShape:
    return C.K == ClauseShape::ListS;
  case CallShape::StructShape:
    return C.K == ClauseShape::StructS &&
           (!S.Exact || S.Functor == M.functorAt(C.Key));
  }
  return true;
}

/// What the dispatch path guarantees about argument register 0 when a
/// chain is entered through one switch bucket.
struct BucketCtx {
  enum Kind : uint8_t {
    NoInfo,  ///< var chain or term-switch var target: nothing known
    ConstB,  ///< switch_on_constant case: exactly this constant
    ListB,   ///< list target: a cons cell
    StructB, ///< switch_on_structure case: exactly this functor
  };
  Kind K = NoInfo;
  ConstOperand Const{};
  FunctorArity Functor{};
};

/// Tracked X-register states, grown on demand.
class RegStates {
public:
  RegState get(int32_t R) const {
    return static_cast<size_t>(R) < S.size() ? S[R] : RegState::Unknown;
  }
  void set(int32_t R, RegState V) {
    if (static_cast<size_t>(R) >= S.size())
      S.resize(R + 1, RegState::Unknown);
    S[R] = V;
  }
  void clear() { S.assign(S.size(), RegState::Unknown); }
  /// Forgets every register, keeping the storage.
  void reset() { S.clear(); }

private:
  std::vector<RegState> S;
};

/// Resets \p St to what the predicate's argument facts say on entry.
void initialStates(const PredSpecFacts *Facts, int32_t Arity,
                   RegStates &St) {
  St.reset();
  if (!Facts || !Facts->Analyzed)
    return;
  for (int32_t A = 0; A != Arity &&
                      A != static_cast<int32_t>(Facts->Args.size());
       ++A) {
    const ArgSpecFacts &AF = Facts->Args[A];
    if (AF.KnownFree)
      St.set(A, RegState::Free);
    else if (AF.KnownGround)
      St.set(A, RegState::Ground);
    else if (AF.KnownNonvar)
      St.set(A, RegState::Nonvar);
  }
}

/// Read/write context of the unify operands following the current get.
enum class HeadMode : uint8_t {
  None,        ///< no get_list/get_structure seen yet
  Write,       ///< building a fresh term: unify ops push, never fail
  ReadGround,  ///< reading a ground term: subterms are ground
  ReadUnknown, ///< reading an instantiated term of unknown groundness
  Dynamic,     ///< mode decided at runtime
};

/// Shared state-transition for a get_value_x (full unification of two
/// tracked values). Free is consumed: afterwards the pair shares one
/// runtime value, so neither side may keep the unaliased-variable claim.
void applyGetValueX(RegStates &St, int32_t A, int32_t B) {
  RegState SA = St.get(A), SB = St.get(B);
  if (SA == RegState::Free && SB == RegState::Free) {
    St.set(A, RegState::Unknown);
    St.set(B, RegState::Unknown);
  } else if (SA == RegState::Free) {
    St.set(A, SB);
  } else if (SB == RegState::Free) {
    St.set(B, SA);
  }
}

/// True when, entered under \p Bucket with the predicate's argument facts,
/// \p C provably reaches a NeckCut before any instruction that can fail.
/// Licenses chain collapse (R4): once the neck cut runs, every later chain
/// entry is unreachable whether or not it was emitted. \p St is working
/// storage.
bool commitsEarly(const CodeModule &M, const ClauseInfo &C,
                  const PredSpecFacts *Facts, int32_t Arity,
                  const BucketCtx &Bucket, RegStates &St) {
  initialStates(Facts, Arity, St);
  // The dispatch guarantees argument 0 is instantiated in any value bucket.
  if (Bucket.K != BucketCtx::NoInfo && St.get(0) == RegState::Unknown)
    St.set(0, RegState::Nonvar);
  HeadMode Mode = HeadMode::None;

  for (int32_t A = C.Entry; A != C.Entry + C.NumInstr; ++A) {
    const Instruction &I = M.at(A);
    switch (I.Op) {
    case Opcode::NeckCut:
      return true;
    case Opcode::Allocate:
    case Opcode::GetLevel:
      break;
    case Opcode::GetVariableX:
      // X[A] := A[B] is a move; if the source was Free the two registers
      // now alias, so only the destination keeps the claim.
      St.set(I.A, St.get(I.B));
      if (St.get(I.B) == RegState::Free)
        St.set(I.B, RegState::Unknown);
      break;
    case Opcode::GetVariableY:
      break; // stores into the environment: cannot fail
    case Opcode::GetValueX:
      if (St.get(I.A) != RegState::Free && St.get(I.B) != RegState::Free)
        return false; // a full unification that may fail
      applyGetValueX(St, I.A, I.B);
      break;
    case Opcode::GetConst:
      if (St.get(I.B) == RegState::Free) {
        St.set(I.B, RegState::Ground); // binds: cannot fail
        break;
      }
      if (Bucket.K == BucketCtx::ConstB && I.B == 0 &&
          M.constAt(I.A) == Bucket.Const)
        break; // the switch already matched this exact constant
      return false;
    case Opcode::GetList:
      if (St.get(I.A) == RegState::Free) {
        Mode = HeadMode::Write;
        St.set(I.A, RegState::Nonvar);
        break;
      }
      if (Bucket.K == BucketCtx::ListB && I.A == 0) {
        Mode = St.get(0) == RegState::Ground ? HeadMode::ReadGround
                                             : HeadMode::ReadUnknown;
        break;
      }
      return false;
    case Opcode::GetStructure:
      if (St.get(I.B) == RegState::Free) {
        Mode = HeadMode::Write;
        St.set(I.B, RegState::Nonvar);
        break;
      }
      if (Bucket.K == BucketCtx::StructB && I.B == 0 &&
          M.functorAt(I.A) == Bucket.Functor) {
        Mode = St.get(0) == RegState::Ground ? HeadMode::ReadGround
                                             : HeadMode::ReadUnknown;
        break;
      }
      return false;
    case Opcode::UnifyVariableX:
      if (Mode == HeadMode::Write)
        St.set(I.A, RegState::Free); // a fresh, unaliased heap variable
      else if (Mode == HeadMode::ReadGround)
        St.set(I.A, RegState::Ground);
      else
        St.set(I.A, RegState::Unknown);
      break;
    case Opcode::UnifyVariableY:
    case Opcode::UnifyVoid:
      break; // store or skip: cannot fail in either mode
    case Opcode::UnifyValueX:
      if (Mode == HeadMode::Write)
        break; // pushes the value: cannot fail
      if (St.get(I.A) != RegState::Free)
        return false; // read-mode unification that may fail
      St.set(I.A, Mode == HeadMode::ReadGround ? RegState::Ground
                                               : RegState::Unknown);
      break;
    case Opcode::UnifyValueY:
      if (Mode == HeadMode::Write)
        break;
      return false;
    case Opcode::UnifyConst:
      if (Mode == HeadMode::Write)
        break;
      return false; // read mode compares against the subterm: may fail
    default:
      return false; // body reached (or untracked op) before the neck cut
    }
  }
  return false; // no neck cut in this clause
}

/// Per-predicate rewrite tallies, folded into the report note.
struct PredTally {
  uint64_t Fused = 0, FusedOps = 0, Flagged = 0, Pruned = 0, Collapsed = 0,
           NeckCuts = 0;
  bool Shortcut = false, VarFail = false;
};

/// The rewriting pass over one module.
class Specializer {
public:
  Specializer(const CodeModule &In, const SpecializationFacts &Facts,
              CodeModule &Out, SpecializationReport &Report)
      : In(In), Facts(Facts), Out(Out), R(Report) {}

  void run();

private:
  struct KeptClause {
    size_t OrigIdx = 0;    ///< index into the original Clauses vector
    int32_t NewEntry = 0;  ///< entry of the copied block in Out
  };

  const PredSpecFacts *factsFor(int32_t Pid) const {
    size_t P = static_cast<size_t>(Pid);
    if (P < Facts.Preds.size() && Facts.Preds[P].Analyzed)
      return &Facts.Preds[P];
    return nullptr;
  }

  /// Copies clause \p C into Out.
  ClauseInfo copyClause(const ClauseInfo &C, const PredSpecFacts *PF,
                        int32_t Arity, bool DropNeckCut, PredTally &T);

  /// Emits the chain over the kept clauses at \p Positions of \p Kept.
  int32_t emitChain(const PredicateInfo &P,
                    const std::vector<KeptClause> &Kept,
                    std::span<const int32_t> Positions,
                    const PredSpecFacts *PF, const BucketCtx &Bucket,
                    PredTally &T);
  int32_t buildIndex(const PredicateInfo &P,
                     const std::vector<KeptClause> &Kept,
                     const PredSpecFacts *PF, PredTally &T);

  const CodeModule &In;
  const SpecializationFacts &Facts;
  CodeModule &Out;
  SpecializationReport &R;
  ChainEmitter Chains;
  // Per-predicate working storage, kept from predicate to predicate.
  std::vector<ClauseShape> Shapes; ///< by original clause index
  std::vector<char> Keep;
  std::vector<KeptClause> Kept;
  /// Keys are (value, pool index): cases sort by value, as the
  /// specializer always laid them out, and carry their index.
  ClauseBuckets<std::pair<ConstOperand, int32_t>,
                std::pair<FunctorArity, int32_t>>
      Buckets;
  std::vector<int32_t> AllPositions;
  std::vector<int32_t> Addrs;
  RegStates States;
};

ClauseInfo Specializer::copyClause(const ClauseInfo &C,
                                   const PredSpecFacts *PF, int32_t Arity,
                                   bool DropNeckCut, PredTally &T) {
  ClauseInfo NewC;
  NewC.Entry = Out.codeSize();
  RegStates &St = States;
  initialStates(PF, Arity, St);
  HeadMode Mode = HeadMode::None;

  int32_t End = C.Entry + C.NumInstr;
  for (int32_t A = C.Entry; A != End; ++A) {
    const Instruction &I = In.at(A);
    switch (I.Op) {
    case Opcode::NeckCut:
      if (DropNeckCut) {
        ++T.NeckCuts;
        ++R.DeletedNeckCuts;
        continue; // a no-op once the predicate cannot push a chain CP
      }
      Out.emit(I);
      break;
    case Opcode::GetVariableX:
      St.set(I.A, St.get(I.B));
      if (St.get(I.B) == RegState::Free)
        St.set(I.B, RegState::Unknown);
      Out.emit(I);
      break;
    case Opcode::GetValueX:
      applyGetValueX(St, I.A, I.B);
      Out.emit(I);
      break;
    case Opcode::GetValueY:
      if (St.get(I.B) == RegState::Free)
        St.set(I.B, RegState::Unknown);
      Out.emit(I);
      break;
    case Opcode::GetConst: {
      Instruction N = I;
      N.Flags = flagsOf(St.get(I.B));
      if (N.Flags) {
        ++T.Flagged;
        ++R.FlaggedInstrs;
      }
      St.set(I.B, RegState::Ground); // on success the register is ground
      Out.emit(N);
      break;
    }
    case Opcode::GetList:
    case Opcode::GetStructure: {
      int32_t Reg = I.Op == Opcode::GetList ? I.A : I.B;
      RegState S = St.get(Reg);
      Mode = S == RegState::Free     ? HeadMode::Write
             : S == RegState::Ground ? HeadMode::ReadGround
             : S == RegState::Nonvar ? HeadMode::ReadUnknown
                                     : HeadMode::Dynamic;
      // Count the contiguous unify operand words that belong to this get.
      int32_t K = 0;
      while (A + 1 + K != End && isUnifyOp(In.at(A + 1 + K).Op))
        ++K;
      uint8_t Flags = flagsOf(S);
      if (PF && S != RegState::Unknown && K > 0) {
        // R1: emit the fused superinstruction, then the original operand
        // words (executed without dispatch by the machine's unify helper).
        if (I.Op == Opcode::GetList) {
          Out.emit({Opcode::GetListFused, I.A, K, 0, Flags});
        } else {
          Out.emit({Opcode::GetStructureFused, I.A, I.B, K, Flags});
        }
        ++T.Fused;
        T.FusedOps += K;
        ++R.FusedBlocks;
        R.FusedOperands += K;
      } else {
        Instruction N = I;
        N.Flags = Flags;
        if (N.Flags) {
          ++T.Flagged;
          ++R.FlaggedInstrs;
        }
        Out.emit(N);
        K = 0; // operand words stay standalone instructions
      }
      St.set(Reg, S == RegState::Ground ? RegState::Ground
                                        : RegState::Nonvar);
      // Walk (and emit) the operand words of a fused block here so the
      // abstract states stay in sync with the machine's execution order.
      for (int32_t W = 0; W != K; ++W) {
        const Instruction &U = In.at(A + 1 + W);
        switch (U.Op) {
        case Opcode::UnifyVariableX:
          St.set(U.A, Mode == HeadMode::Write        ? RegState::Free
                      : Mode == HeadMode::ReadGround ? RegState::Ground
                                                     : RegState::Unknown);
          break;
        case Opcode::UnifyValueX:
          if (Mode != HeadMode::Write)
            St.set(U.A, Mode == HeadMode::ReadGround &&
                                St.get(U.A) == RegState::Ground
                            ? RegState::Ground
                            : RegState::Unknown);
          break;
        default:
          break;
        }
        Out.emit(U);
      }
      A += K;
      break;
    }
    case Opcode::UnifyVariableX:
      // An operand word outside a fused block: track it the same way.
      St.set(I.A, Mode == HeadMode::Write        ? RegState::Free
                  : Mode == HeadMode::ReadGround ? RegState::Ground
                                                 : RegState::Unknown);
      Out.emit(I);
      break;
    case Opcode::UnifyValueX:
      if (Mode != HeadMode::Write)
        St.set(I.A, RegState::Unknown);
      Out.emit(I);
      break;
    case Opcode::PutVariableX:
    case Opcode::PutVariableY:
    case Opcode::PutValueX:
    case Opcode::PutValueY:
    case Opcode::PutConst:
    case Opcode::PutList:
    case Opcode::PutStructure:
    case Opcode::Call:
    case Opcode::Execute:
    case Opcode::Builtin:
      // Body construction and calls clobber the register file; every
      // tracked fact dies here (gets never follow, but stay safe).
      St.clear();
      Mode = HeadMode::Dynamic;
      Out.emit(I);
      break;
    default:
      Out.emit(I);
      break;
    }
  }
  NewC.NumInstr = Out.codeSize() - NewC.Entry;
  return NewC;
}

int32_t Specializer::emitChain(const PredicateInfo &P,
                               const std::vector<KeptClause> &Kept,
                               std::span<const int32_t> Positions,
                               const PredSpecFacts *PF,
                               const BucketCtx &Bucket, PredTally &T) {
  // R4: truncate after the first entry that provably commits — once its
  // neck cut runs, later entries can never be retried. The last entry has
  // none after it.
  size_t N = Positions.size();
  for (size_t I = 0; I + 1 < N; ++I)
    if (commitsEarly(In, P.Clauses[Kept[Positions[I]].OrigIdx], PF, P.Arity,
                     Bucket, States)) {
      N = I + 1;
      ++T.Collapsed;
      ++R.CollapsedChains;
      break;
    }
  Addrs.clear();
  for (size_t I = 0; I != N; ++I)
    Addrs.push_back(Kept[Positions[I]].NewEntry);
  return Chains.emit(Out, Addrs, P.Arity);
}

int32_t Specializer::buildIndex(const PredicateInfo &P,
                                const std::vector<KeptClause> &Kept,
                                const PredSpecFacts *PF, PredTally &T) {
  size_t N = Kept.size();
  if (N == 0)
    return kFailTarget;
  if (N == 1)
    return Kept[0].NewEntry;

  Buckets.clear();
  AllPositions.clear();
  for (const KeptClause &K : Kept) {
    AllPositions.push_back(static_cast<int32_t>(AllPositions.size()));
    const ClauseShape &S = Shapes[K.OrigIdx];
    switch (S.K) {
    case ClauseShape::VarS:
      Buckets.addVar();
      break;
    case ClauseShape::ConstS:
      Buckets.addConst({In.constAt(S.Key), S.Key});
      break;
    case ClauseShape::ListS:
      Buckets.addList();
      break;
    case ClauseShape::StructS:
      Buckets.addStruct({In.functorAt(S.Key), S.Key});
      break;
    }
  }
  Buckets.finish();

  if (Buckets.allVar())
    return emitChain(P, Kept, AllPositions, PF, {}, T);

  // Each bucket's chain holds the clauses applicable in it (variable heads
  // match in every bucket), in source order.
  auto listTarget = [&] {
    BucketCtx Ctx;
    Ctx.K = BucketCtx::ListB;
    return emitChain(P, Kept, Buckets.listChain(), PF, Ctx, T);
  };
  auto constTarget = [&] {
    int32_t Default = emitChain(P, Kept, Buckets.vars(), PF, {}, T);
    if (Buckets.numConstKeys() == 0)
      return Default;
    ValueSwitch VS;
    VS.Default = Default;
    VS.Cases.reserve(Buckets.numConstKeys());
    for (size_t I = 0; I != Buckets.numConstKeys(); ++I) {
      BucketCtx Ctx;
      Ctx.K = BucketCtx::ConstB;
      Ctx.Const = Buckets.constKey(I).first;
      VS.Cases.emplace_back(
          Buckets.constKey(I).second,
          emitChain(P, Kept, Buckets.constChain(I), PF, Ctx, T));
    }
    int32_t TableIdx = Out.addValueSwitch(std::move(VS));
    return Out.emit({Opcode::SwitchOnConstant, TableIdx, 0});
  };
  auto structTarget = [&] {
    int32_t Default = emitChain(P, Kept, Buckets.vars(), PF, {}, T);
    if (Buckets.numFunctorKeys() == 0)
      return Default;
    ValueSwitch VS;
    VS.Default = Default;
    VS.Cases.reserve(Buckets.numFunctorKeys());
    for (size_t I = 0; I != Buckets.numFunctorKeys(); ++I) {
      BucketCtx Ctx;
      Ctx.K = BucketCtx::StructB;
      Ctx.Functor = Buckets.functorKey(I).first;
      VS.Cases.emplace_back(
          Buckets.functorKey(I).second,
          emitChain(P, Kept, Buckets.functorChain(I), PF, Ctx, T));
    }
    int32_t TableIdx = Out.addValueSwitch(std::move(VS));
    return Out.emit({Opcode::SwitchOnStructure, TableIdx, 0});
  };

  // R5: when every observed call selects one switch_on_term bucket, enter
  // that bucket directly and skip the term dispatch. A list shape may be
  // the [] atom at runtime, so only definite cons shapes qualify for the
  // list shortcut.
  if (PF && !PF->Shapes.empty()) {
    auto allOf = [&](CallShape::Kind K) {
      for (const CallShape &S : PF->Shapes)
        if (S.K != K)
          return false;
      return true;
    };
    if (allOf(CallShape::ConstShape)) {
      T.Shortcut = true;
      ++R.ShortcutSwitches;
      return constTarget();
    }
    if (allOf(CallShape::StructShape)) {
      T.Shortcut = true;
      ++R.ShortcutSwitches;
      return structTarget();
    }
    if (allOf(CallShape::ConsShape)) {
      T.Shortcut = true;
      ++R.ShortcutSwitches;
      return listTarget();
    }
  }

  int32_t ListT = listTarget();
  int32_t ConstT = constTarget();
  int32_t StructT = structTarget();

  // R5 (var half): if no call can carry an unbound first argument, the var
  // target is unreachable and becomes fail. The value-switch defaults above
  // keep their variable-head chains: they handle *instantiated* arguments
  // whose value is absent from the case table.
  int32_t VarT;
  bool NoVarCalls = PF && !PF->Shapes.empty();
  if (NoVarCalls)
    for (const CallShape &S : PF->Shapes)
      if (S.K == CallShape::AnyShape || S.K == CallShape::VarShape)
        NoVarCalls = false;
  if (NoVarCalls) {
    VarT = kFailTarget;
    T.VarFail = true;
    ++R.FailVarTargets;
  } else {
    VarT = emitChain(P, Kept, AllPositions, PF, {}, T);
  }

  int32_t SwitchIdx = Out.addTermSwitch({VarT, ConstT, ListT, StructT});
  return Out.emit({Opcode::SwitchOnTerm, SwitchIdx, 0});
}

void Specializer::run() {
  // The rewritten code is about as long as the original: fusion replaces
  // instructions one for one and pruning only removes.
  Out.reserveCode(In.codeSize());
  // Out numbers its pools as In does, so instructions copy with their
  // pool operands as they are; the listing resolves them to values.
  Out.copyPoolsFrom(In);
  // Fixed module preamble, as the original compiler laid it out.
  Out.emit({Opcode::Halt, 0, 0});
  Out.emit({Opcode::Proceed, 0, 0});

  // Pre-intern every predicate in id order so Call/Execute operands and
  // all external predicate ids stay valid in the specialized module.
  for (int32_t Pid = 0; Pid != In.numPredicates(); ++Pid) {
    const PredicateInfo &P = In.predicate(Pid);
    int32_t NewPid = Out.predicateId(P.Name, P.Arity);
    assert(NewPid == Pid && "predicate ids must be stable");
    (void)NewPid;
  }

  for (int32_t Pid = 0; Pid != In.numPredicates(); ++Pid) {
    const PredicateInfo &P = In.predicate(Pid);
    if (P.Clauses.empty())
      continue; // undefined: IndexEntry stays kFailTarget
    const PredSpecFacts *PF = factsFor(Pid);
    PredTally T;

    Shapes.clear();
    for (const ClauseInfo &C : P.Clauses)
      Shapes.push_back(shapeFromCode(In, C));

    // R3: drop clauses no observed call shape can reach. If the facts rule
    // out *every* clause the analysis says all calls fail; keep the code
    // unpruned rather than encode that conclusion into the dispatch.
    Keep.assign(P.Clauses.size(), 1);
    if (PF && !PF->Shapes.empty()) {
      size_t NumKept = 0;
      for (size_t I = 0; I != P.Clauses.size(); ++I) {
        bool K = false;
        for (const CallShape &S : PF->Shapes)
          if (shapeMatches(S, Shapes[I], In)) {
            K = true;
            break;
          }
        Keep[I] = K;
        NumKept += K;
      }
      if (NumKept == 0)
        Keep.assign(P.Clauses.size(), 1);
      else {
        T.Pruned = P.Clauses.size() - NumKept;
        R.PrunedClauses += T.Pruned;
      }
    }

    size_t NumKept = 0;
    for (char K : Keep)
      NumKept += K;
    // R6: one surviving clause means no chain can ever push a choice
    // point for this predicate, so its neck cut is a no-op.
    bool DropNeckCut = NumKept == 1;

    Kept.clear();
    PredicateInfo &NewP = Out.predicate(Pid);
    NewP.Clauses.reserve(NumKept);
    for (size_t I = 0; I != P.Clauses.size(); ++I) {
      if (!Keep[I])
        continue;
      ClauseInfo NewC =
          copyClause(P.Clauses[I], PF, P.Arity, DropNeckCut, T);
      Kept.push_back({I, NewC.Entry});
      NewP.Clauses.push_back(NewC);
    }

    NewP.IndexEntry = buildIndex(P, Kept, PF, T);

    if (T.Fused || T.Flagged || T.Pruned || T.Collapsed || T.NeckCuts ||
        T.Shortcut || T.VarFail || (PF && PF->Det != DetSpecClass::Unknown)) {
      std::string Note = In.predicateLabel(Pid) + ":";
      if (T.Pruned)
        Note += " pruned " + std::to_string(T.Pruned) + "/" +
                std::to_string(P.Clauses.size()) + " clauses";
      if (T.Fused)
        Note += " fused " + std::to_string(T.Fused) + " blocks (" +
                std::to_string(T.FusedOps) + " ops)";
      if (T.Flagged)
        Note += " flagged " + std::to_string(T.Flagged);
      if (T.Collapsed)
        Note += " collapsed " + std::to_string(T.Collapsed) + " chains";
      if (T.Shortcut)
        Note += " direct-bucket entry";
      if (T.VarFail)
        Note += " var-target=fail";
      if (T.NeckCuts)
        Note += " deleted " + std::to_string(T.NeckCuts) + " neck cuts";
      if (PF) {
        switch (PF->Det) {
        case DetSpecClass::Det: Note += " [det]"; break;
        case DetSpecClass::Semidet: Note += " [semidet]"; break;
        case DetSpecClass::Nondet: Note += " [nondet]"; break;
        case DetSpecClass::Fails: Note += " [fails]"; break;
        case DetSpecClass::Unknown: break;
        }
      }
      R.Notes.push_back(Note);
    }
  }
}

} // namespace

std::unique_ptr<CodeModule>
awam::specializeModule(const CodeModule &M, const SpecializationFacts &Facts,
                       SpecializationReport &Report) {
  auto Out = std::make_unique<CodeModule>(M.symbols());
  Specializer(M, Facts, *Out, Report).run();
  return Out;
}

CompiledProgram awam::specializeProgram(const CompiledProgram &P,
                                        const SpecializationFacts &Facts,
                                        SpecializationReport &Report) {
  CompiledProgram Out;
  Out.Module = specializeModule(*P.Module, Facts, Report);
  Out.MaxXReg = P.MaxXReg; // rewrites introduce no new temporaries
  Out.UndefinedPredicates = P.UndefinedPredicates;
  Out.NumArgs = P.NumArgs;
  Out.NumPreds = P.NumPreds;
  return Out;
}

std::string awam::formatSpecialization(const CodeModule &Spec,
                                       const SpecializationReport &R) {
  std::string Out = "specialization summary:\n";
  auto Line = [&](const char *Label, uint64_t V) {
    Out += "  " + padRight(Label, 22) + std::to_string(V) + "\n";
  };
  Line("fused blocks:", R.FusedBlocks);
  Line("fused operand words:", R.FusedOperands);
  Line("flagged instructions:", R.FlaggedInstrs);
  Line("pruned clauses:", R.PrunedClauses);
  Line("collapsed chains:", R.CollapsedChains);
  Line("shortcut dispatches:", R.ShortcutSwitches);
  Line("var targets to fail:", R.FailVarTargets);
  Line("deleted neck cuts:", R.DeletedNeckCuts);
  if (!R.Notes.empty()) {
    Out += "per-predicate rewrites:\n";
    for (const std::string &N : R.Notes)
      Out += "  " + N + "\n";
  }
  Out += "specialized code:\n";
  return Out + disassembleModule(Spec);
}
