//===- compiler/CodeModule.h - Compiled WAM code ----------------*- C++ -*-===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Container for a compiled program: the instruction stream, the constant /
/// functor pools, switch tables, and the predicate table. Both the concrete
/// and the abstract machine execute CodeModule instances.
///
//===----------------------------------------------------------------------===//

#ifndef AWAM_COMPILER_CODEMODULE_H
#define AWAM_COMPILER_CODEMODULE_H

#include "compiler/Instruction.h"
#include "support/FlatMap.h"
#include "support/SymbolTable.h"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace awam {

/// A functor pool entry: name/arity.
struct FunctorArity {
  Symbol Name;
  int32_t Arity;
  friend bool operator==(const FunctorArity &, const FunctorArity &) =
      default;
  friend auto operator<=>(const FunctorArity &, const FunctorArity &) =
      default;
};

/// A constant pool entry: an atom or an integer.
struct ConstOperand {
  enum Kind : uint8_t { AtomK, IntK };
  Kind K = AtomK;
  Symbol Name = 0; // for AtomK
  int64_t Int = 0; // for IntK

  static ConstOperand atom(Symbol S) { return {AtomK, S, 0}; }
  static ConstOperand integer(int64_t V) { return {IntK, 0, V}; }
  friend bool operator==(const ConstOperand &, const ConstOperand &) =
      default;
  friend auto operator<=>(const ConstOperand &, const ConstOperand &) =
      default;
};

/// Targets of a switch_on_term instruction; kFailTarget means "fail".
struct TermSwitch {
  int32_t OnVar;
  int32_t OnConst;
  int32_t OnList;
  int32_t OnStruct;
};

/// Case table of switch_on_constant / switch_on_structure. Keys index the
/// constant pool (switch_on_constant) or the functor pool
/// (switch_on_structure).
struct ValueSwitch {
  std::vector<std::pair<int32_t, int32_t>> Cases; // (pool key, address)
  int32_t Default;                                // address or kFailTarget
};

/// Sentinel code address meaning "fail" in switch targets.
inline constexpr int32_t kFailTarget = -1;

/// Fixed code addresses emitted at the start of every module.
inline constexpr int32_t kHaltAddress = 0;    ///< top-level continuation
inline constexpr int32_t kProceedAddress = 1; ///< synthetic clause return

/// One compiled clause: its code block [Entry, Entry+NumInstr).
struct ClauseInfo {
  int32_t Entry = 0;
  int32_t NumInstr = 0;
};

/// One predicate: name/arity, its clauses, and its indexed entry point.
struct PredicateInfo {
  Symbol Name = 0;
  int32_t Arity = 0;
  /// Entry point including the first-argument indexing block; this is where
  /// the concrete machine jumps on call. kFailTarget for undefined
  /// predicates.
  int32_t IndexEntry = kFailTarget;
  /// Per-clause code blocks, in source order. The abstract machine iterates
  /// these directly (the paper folds clause selection into call/proceed).
  std::vector<ClauseInfo> Clauses;
};

/// A compiled program.
class CodeModule {
public:
  explicit CodeModule(SymbolTable &Syms) : Syms(&Syms) {}

  /// The symbol table all pool entries refer to.
  SymbolTable &symbols() const { return *Syms; }

  /// Appends \p I and returns its address.
  int32_t emit(Instruction I) {
    Code.push_back(I);
    return static_cast<int32_t>(Code.size()) - 1;
  }

  /// Appends \p Block and returns the address of its first instruction.
  int32_t emitBlock(std::span<const Instruction> Block) {
    int32_t Addr = codeSize();
    Code.insert(Code.end(), Block.begin(), Block.end());
    return Addr;
  }

  const Instruction &at(int32_t Addr) const { return Code[Addr]; }
  /// The emitted instructions from \p Addr on, for patching in place.
  std::span<Instruction> codeFrom(int32_t Addr) {
    return std::span<Instruction>(Code).subspan(Addr);
  }
  /// The instructions in [\p Begin, \p End).
  std::span<const Instruction> code(int32_t Begin, int32_t End) const {
    return std::span<const Instruction>(Code).subspan(Begin, End - Begin);
  }
  int32_t codeSize() const { return static_cast<int32_t>(Code.size()); }
  /// Makes room for \p N instructions in all, so that emitting up to that
  /// many does not reallocate.
  void reserveCode(int32_t N) { Code.reserve(N); }

  /// Makes the constant and functor pools copies of \p M's, so that a
  /// pool index means here what it means in \p M. Call it before
  /// interning anything. The pools' hash indexes are not copied; an
  /// intern that misses afterwards builds them from the pools first.
  void copyPoolsFrom(const CodeModule &M);

  /// Interns a constant pool entry.
  int32_t internConst(ConstOperand C);
  const ConstOperand &constAt(int32_t Idx) const { return Consts[Idx]; }
  int32_t numConsts() const { return static_cast<int32_t>(Consts.size()); }

  /// Interns a functor pool entry.
  int32_t internFunctor(FunctorArity F);
  const FunctorArity &functorAt(int32_t Idx) const { return Functors[Idx]; }
  int32_t numFunctors() const {
    return static_cast<int32_t>(Functors.size());
  }

  int32_t addTermSwitch(TermSwitch S) {
    TermSwitches.push_back(S);
    return static_cast<int32_t>(TermSwitches.size()) - 1;
  }
  const TermSwitch &termSwitchAt(int32_t Idx) const {
    return TermSwitches[Idx];
  }
  int32_t numTermSwitches() const {
    return static_cast<int32_t>(TermSwitches.size());
  }

  int32_t addValueSwitch(ValueSwitch S) {
    ValueSwitches.push_back(std::move(S));
    return static_cast<int32_t>(ValueSwitches.size()) - 1;
  }
  const ValueSwitch &valueSwitchAt(int32_t Idx) const {
    return ValueSwitches[Idx];
  }
  int32_t numValueSwitches() const {
    return static_cast<int32_t>(ValueSwitches.size());
  }

  /// Returns the id of predicate \p Name/\p Arity, creating an undefined
  /// entry on first reference.
  int32_t predicateId(Symbol Name, int Arity);

  /// Returns the id if the predicate exists, or -1.
  int32_t findPredicate(Symbol Name, int Arity) const;

  PredicateInfo &predicate(int32_t Id) { return Preds[Id]; }
  const PredicateInfo &predicate(int32_t Id) const { return Preds[Id]; }
  int32_t numPredicates() const { return static_cast<int32_t>(Preds.size()); }

  /// Human-readable name "foo/2" of a predicate.
  std::string predicateLabel(int32_t Id) const;

  /// A stable identity hash of the module's semantic content: predicate
  /// names/arities and their clause code with pool indices resolved to
  /// their meaning (constant values, functor names, callee signatures) —
  /// the same resolution diffPrograms compares by, so two modules with
  /// equal fingerprints analyze identically. Used by long-lived services
  /// to key one persistent analysis store per compiled module
  /// (analyzer/Store.h, examples/analyze_server.cpp).
  uint64_t fingerprint() const;

  /// The per-predicate slice of fingerprint(): name/arity plus the clause
  /// code of predicate \p Id alone, with the same pool-index resolution.
  /// Equal hashes mean the predicate's clauses analyze identically in both
  /// modules — the staleness guard summary bundles carry per predicate
  /// (analyzer/SummaryBundle.h), which stays meaningful across a relink
  /// because the resolution is relocation-invariant.
  uint64_t predicateFingerprint(int32_t Id) const;

private:
  /// Folds predicate \p Id (name, arity, resolved clause code) into \p H.
  void hashPredicate(uint64_t &H, int32_t Id) const;
  /// The index of \p C's kind: atoms by name, integers by value.
  detail::FlatMap64 &constIndex(const ConstOperand &C);

  SymbolTable *Syms;
  std::vector<Instruction> Code;
  std::vector<ConstOperand> Consts;
  /// Constant pool indexes of atoms by name and of integers by value.
  detail::FlatMap64 AtomIndex;
  detail::FlatMap64 IntIndex;
  std::vector<FunctorArity> Functors;
  /// Functor pool indexes by (name, arity), packed into one exact key.
  detail::FlatMap64 FunctorIndex;
  std::vector<TermSwitch> TermSwitches;
  std::vector<ValueSwitch> ValueSwitches;
  std::vector<PredicateInfo> Preds;
  /// Predicate ids by (name, arity), keyed like FunctorIndex.
  detail::FlatMap64 PredIndex;
};

} // namespace awam

#endif // AWAM_COMPILER_CODEMODULE_H
