//===- compiler/Indexing.h - First-argument indexing blocks -----*- C++ -*-===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the compiler and the specializer share to lay out a predicate's
/// first-argument dispatch: one stable pass that sorts its clauses into
/// per-key buckets, and one emitter of try/retry/trust chains that emits
/// each distinct chain once.
///
/// A bucket's chain is every clause its dispatch can select, in source
/// order: the clauses whose first argument is a variable, merged with the
/// clauses of the bucket's own key. Building all of a predicate's chains
/// costs the size of the chains, so a table of N facts with distinct
/// first arguments compiles in N log N time (the sort) rather than N^2.
///
//===----------------------------------------------------------------------===//

#ifndef AWAM_COMPILER_INDEXING_H
#define AWAM_COMPILER_INDEXING_H

#include "compiler/CodeModule.h"
#include "support/FlatMap.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace awam {

/// The clauses of one predicate grouped by first-argument dispatch class
/// and key. Clause positions run 0..N-1 in source order and must be added
/// in that order. Constant keys sort by \p ConstKey's `<` and functor keys
/// by \p FunctorKey's, which is the order of the switch tables' cases.
/// An instance is reused from predicate to predicate, so building an
/// index allocates only while the largest predicate so far grows.
template <typename ConstKey, typename FunctorKey> class ClauseBuckets {
public:
  /// Starts over for the next predicate.
  void clear() {
    NumClauses = 0;
    Vars.clear();
    Lists.clear();
    Consts.clear();
    Functors.clear();
  }

  void addVar() { Vars.push_back(NumClauses++); }
  void addList() { Lists.push_back(NumClauses++); }
  void addConst(const ConstKey &K) { Consts.add(K, NumClauses++); }
  void addStruct(const FunctorKey &K) { Functors.add(K, NumClauses++); }

  /// Sorts the keyed clauses into their buckets; call after the last add.
  void finish() {
    Consts.finish();
    Functors.finish();
  }

  int32_t size() const { return NumClauses; }
  /// Positions of the clauses with a variable first argument.
  std::span<const int32_t> vars() const { return Vars; }
  bool allVar() const {
    return static_cast<int32_t>(Vars.size()) == NumClauses;
  }

  /// The clauses a list argument selects.
  std::span<const int32_t> listChain() { return merged(Lists); }

  size_t numConstKeys() const { return Consts.numKeys(); }
  const ConstKey &constKey(size_t I) const { return Consts.key(I); }
  /// The clauses the constant of key \p I selects.
  std::span<const int32_t> constChain(size_t I) {
    return merged(Consts.group(I));
  }

  size_t numFunctorKeys() const { return Functors.numKeys(); }
  const FunctorKey &functorKey(size_t I) const { return Functors.key(I); }
  /// The clauses a structure of functor key \p I selects.
  std::span<const int32_t> functorChain(size_t I) {
    return merged(Functors.group(I));
  }

private:
  /// Keyed clause positions, grouped by key after finish().
  template <typename Key> class KeyGroups {
  public:
    void clear() {
      Items.clear();
      Starts.clear();
    }
    void add(const Key &K, int32_t Pos) { Items.emplace_back(K, Pos); }
    /// Sorts by key, then position; source order is usually key order
    /// already, which the check finds in one pass.
    void finish() {
      if (!std::is_sorted(Items.begin(), Items.end()))
        std::sort(Items.begin(), Items.end());
      Positions.clear();
      for (size_t I = 0; I != Items.size(); ++I) {
        if (I == 0 || Items[I - 1].first < Items[I].first)
          Starts.push_back(static_cast<int32_t>(I));
        Positions.push_back(Items[I].second);
      }
      Starts.push_back(static_cast<int32_t>(Items.size()));
    }
    size_t numKeys() const { return Starts.empty() ? 0 : Starts.size() - 1; }
    const Key &key(size_t I) const { return Items[Starts[I]].first; }
    std::span<const int32_t> group(size_t I) const {
      return std::span<const int32_t>(Positions)
          .subspan(Starts[I], Starts[I + 1] - Starts[I]);
    }

  private:
    std::vector<std::pair<Key, int32_t>> Items;
    std::vector<int32_t> Positions; ///< Items' positions, in sorted order
    std::vector<int32_t> Starts;    ///< group I is [Starts[I], Starts[I+1])
  };

  /// The variable clauses merged with \p Keyed by position, in a buffer
  /// valid until the next call.
  std::span<const int32_t> merged(std::span<const int32_t> Keyed) {
    Merged.resize(Vars.size() + Keyed.size());
    std::merge(Vars.begin(), Vars.end(), Keyed.begin(), Keyed.end(),
               Merged.begin());
    return Merged;
  }

  int32_t NumClauses = 0;
  std::vector<int32_t> Vars;
  std::vector<int32_t> Lists;
  KeyGroups<ConstKey> Consts;
  KeyGroups<FunctorKey> Functors;
  std::vector<int32_t> Merged;
};

/// Emits try/retry/trust chains over clause entry points into one module,
/// and emits each distinct chain once: a chain is found again by a hash of
/// its entry list, confirmed against the code already emitted.
class ChainEmitter {
public:
  /// The address of a chain over the code addresses \p Entries whose
  /// choice point saves \p Arity argument registers: kFailTarget for no
  /// entry, the entry itself for one, or a try/retry/trust block.
  int32_t emit(CodeModule &M, std::span<const int32_t> Entries,
               int32_t Arity) {
    if (Entries.empty())
      return kFailTarget;
    if (Entries.size() == 1)
      return Entries[0];
    uint64_t Key = hashEntries(Entries);
    uint32_t Hit = Emitted.findIf(
        Key, [&](uint32_t Addr) { return isChain(M, Addr, Entries); });
    if (Hit != detail::FlatMap64::kEmpty)
      return static_cast<int32_t>(Hit);
    int32_t Addr = M.codeSize();
    M.emit({Opcode::Try, Entries.front(), Arity});
    for (size_t I = 1; I + 1 < Entries.size(); ++I)
      M.emit({Opcode::Retry, Entries[I], Arity});
    M.emit({Opcode::Trust, Entries.back(), Arity});
    Emitted.insert(Key, static_cast<uint32_t>(Addr));
    return Addr;
  }

private:
  static uint64_t hashEntries(std::span<const int32_t> Entries) {
    uint64_t H = Entries.size();
    for (int32_t E : Entries)
      H = (H ^ static_cast<uint32_t>(E)) * 0x9e3779b97f4a7c15ull;
    return H;
  }

  /// True when the chain at \p Addr runs exactly \p Entries.
  static bool isChain(const CodeModule &M, int32_t Addr,
                      std::span<const int32_t> Entries) {
    if (Addr + static_cast<int64_t>(Entries.size()) > M.codeSize())
      return false;
    for (size_t I = 0; I != Entries.size(); ++I) {
      const Instruction &In = M.at(Addr + static_cast<int32_t>(I));
      Opcode Want = I == 0                    ? Opcode::Try
                    : I + 1 == Entries.size() ? Opcode::Trust
                                              : Opcode::Retry;
      if (In.Op != Want || In.A != Entries[I])
        return false;
    }
    return true;
  }

  detail::FlatMap64 Emitted; ///< entry-list hash -> chain address
};

} // namespace awam

#endif // AWAM_COMPILER_INDEXING_H
