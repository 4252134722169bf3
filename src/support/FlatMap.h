//===- support/FlatMap.h - Open-addressing uint64 -> uint32 map -*- C++ -*-===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one open-addressing hash map of the system. The symbol table, the
/// code module's pool and predicate indexes, the chain cache of the
/// compiler and the specializer, and the analyzer's interner, extension
/// table, store and journal all key their indexes with it.
///
//===----------------------------------------------------------------------===//

#ifndef AWAM_SUPPORT_FLATMAP_H
#define AWAM_SUPPORT_FLATMAP_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace awam {
namespace detail {

/// Minimal open-addressing uint64 -> uint32 hash map: linear probing,
/// power-of-2 capacity, no deletion, one flat allocation per array. The
/// value 0xFFFFFFFF marks an empty slot and is never stored. Duplicate
/// keys are permitted (an index keyed by a hash keeps collisions in
/// separate slots); findIf visits every entry with the given key in probe
/// order.
class FlatMap64 {
public:
  static constexpr uint32_t kEmpty = 0xFFFFFFFFu;

  /// First value stored under \p Key, or kEmpty.
  uint32_t lookup(uint64_t Key) const {
    return findIf(Key, [](uint32_t) { return true; });
  }

  /// First value stored under \p Key accepted by \p Match, or kEmpty.
  template <typename F> uint32_t findIf(uint64_t Key, F &&Match) const {
    if (Vals.empty())
      return kEmpty;
    size_t Mask = Vals.size() - 1;
    for (size_t I = mix(Key) & Mask;; I = (I + 1) & Mask) {
      if (Vals[I] == kEmpty)
        return kEmpty;
      if (Keys[I] == Key && Match(Vals[I]))
        return Vals[I];
    }
  }

  /// Inserts (\p Key, \p Val); does not overwrite existing entries with
  /// the same key (a new slot is used).
  void insert(uint64_t Key, uint32_t Val) {
    if (10 * (Count + 1) >= 7 * Vals.size())
      grow();
    size_t Mask = Vals.size() - 1;
    size_t I = mix(Key) & Mask;
    while (Vals[I] != kEmpty)
      I = (I + 1) & Mask;
    Keys[I] = Key;
    Vals[I] = Val;
    ++Count;
  }

  /// Inserts (\p Key, \p Val) unless \p Key is already present; true
  /// when it inserted. The set-like use: one probe sequence per key.
  bool insertUnique(uint64_t Key, uint32_t Val) {
    if (10 * (Count + 1) >= 7 * Vals.size())
      grow();
    size_t Mask = Vals.size() - 1;
    size_t I = mix(Key) & Mask;
    for (; Vals[I] != kEmpty; I = (I + 1) & Mask)
      if (Keys[I] == Key)
        return false;
    Keys[I] = Key;
    Vals[I] = Val;
    ++Count;
    return true;
  }

  size_t size() const { return Count; }

  /// Heap bytes held by the two flat arrays (eviction accounting).
  size_t bytesUsed() const {
    return Keys.capacity() * sizeof(uint64_t) +
           Vals.capacity() * sizeof(uint32_t);
  }

private:
  static size_t mix(uint64_t K) {
    // splitmix64 finalizer.
    K += 0x9e3779b97f4a7c15ull;
    K = (K ^ (K >> 30)) * 0xbf58476d1ce4e5b9ull;
    K = (K ^ (K >> 27)) * 0x94d049bb133111ebull;
    return static_cast<size_t>(K ^ (K >> 31));
  }

  void grow() {
    size_t NewCap = Vals.empty() ? 64 : Vals.size() * 2;
    std::vector<uint64_t> OldKeys = std::move(Keys);
    std::vector<uint32_t> OldVals = std::move(Vals);
    Keys.assign(NewCap, 0);
    Vals.assign(NewCap, kEmpty);
    size_t Mask = NewCap - 1;
    for (size_t I = 0; I != OldVals.size(); ++I) {
      if (OldVals[I] == kEmpty)
        continue;
      size_t J = mix(OldKeys[I]) & Mask;
      while (Vals[J] != kEmpty)
        J = (J + 1) & Mask;
      Keys[J] = OldKeys[I];
      Vals[J] = OldVals[I];
    }
  }

  std::vector<uint64_t> Keys;
  std::vector<uint32_t> Vals;
  size_t Count = 0;
};

} // namespace detail
} // namespace awam

#endif // AWAM_SUPPORT_FLATMAP_H
