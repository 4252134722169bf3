//===- analyzer/PatternInterner.h - Hash-consed patterns --------*- C++ -*-===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hash-consing of canonical Patterns: every structurally distinct pattern
/// is stored exactly once and addressed by a dense PatternId, so the
/// fixpoint loop compares, hashes and memoizes abstract descriptions by
/// integer id instead of deep value comparison. On top of interning, the
/// lattice operations lub and leq are memoized on id pairs, and a pooled
/// scratch Store replaces the per-call store construction the paper's
/// instantiate/lub/re-canonicalize dance would otherwise pay.
///
/// The abstract domain is finite (term-depth restriction, Section 3), so
/// the table of distinct patterns per analysis is small and the memo
/// caches converge quickly: at the fixpoint every lub the loop performs is
/// a cache hit.
///
//===----------------------------------------------------------------------===//

#ifndef AWAM_ANALYZER_PATTERNINTERNER_H
#define AWAM_ANALYZER_PATTERNINTERNER_H

#include "analyzer/Pattern.h"
#include "support/FlatMap.h"

#include <vector>

namespace awam {

class Domain;

/// Dense identifier of an interned pattern. Two interned patterns are
/// structurally equal iff their ids are equal.
using PatternId = uint32_t;

/// Sentinel for "no pattern".
inline constexpr PatternId kInvalidPatternId = 0xFFFFFFFFu;

/// Hit/miss counters for the interner and its memo caches (reported
/// through AnalysisResult::Counters).
struct InternerStats {
  uint64_t InternHits = 0;
  uint64_t InternMisses = 0; ///< == number of distinct patterns created
  uint64_t LubCacheHits = 0;
  uint64_t LubCacheMisses = 0;
  uint64_t LeqCacheHits = 0;
  uint64_t LeqCacheMisses = 0;
};

/// The hash-consing table plus memoized lattice operations. One interner
/// serves one analysis run (ids are only meaningful relative to their
/// interner); the depth limit is fixed at construction because lub results
/// depend on it.
class PatternInterner {
public:
  /// \p Dom routes the lattice operations (lub misses, entry
  /// normalization) through an abstract domain; null keeps the default
  /// (modes) inline code — byte-identical to routing through the default
  /// domain, whose hooks are that code.
  explicit PatternInterner(int DepthLimit = kDefaultDepthLimit,
                           const Domain *Dom = nullptr)
      : DepthLimit(DepthLimit), Dom(Dom) {}

  /// The domain this interner's lattice operations run under (null =
  /// default inline path).
  const Domain *domain() const { return Dom; }

  /// Interns \p P (which must already be in canonical first-visit-order
  /// form, as produced by canonicalize). A miss appends the pattern to the
  /// shared arenas (amortized allocation-free), so callers can intern a
  /// pooled scratch pattern freely.
  PatternId intern(const PatternRef &P);

  /// Interns an arbitrary (possibly hand-built, non-canonical) pattern by
  /// instantiating it into the scratch store and re-canonicalizing first.
  /// Used for entry patterns, which come from makeEntryPattern /
  /// parseEntrySpec rather than from canonicalize.
  PatternId internNormalized(const Pattern &P);

  /// A view of the interned pattern for \p Id. Views are transient:
  /// subsequent interning (including lub misses) can reallocate the
  /// arenas, so materialize with Pattern(ref) before holding on to one.
  PatternRef pattern(PatternId Id) const {
    const Rec &R = Recs[Id];
    return PatternRef(ArenaNodes.data() + R.NodeB, R.NodeN,
                      ArenaChildren.data() + R.ChildB,
                      ArenaRoots.data() + R.RootB, R.RootN);
  }

  /// Number of distinct patterns interned so far.
  size_t size() const { return Recs.size(); }

  /// Approximate heap bytes this interner holds: the three pattern arenas,
  /// the record table, and the hash/memo maps. This is the interner term
  /// of the store eviction accounting (analyzer/Server.h).
  size_t bytesUsed() const {
    return Recs.capacity() * sizeof(Rec) +
           ArenaNodes.capacity() * sizeof(PatNode) +
           ArenaChildren.capacity() * sizeof(int32_t) +
           ArenaRoots.capacity() * sizeof(int32_t) + Buckets.bytesUsed() +
           LubMemo.bytesUsed() + LeqMemo.bytesUsed();
  }

  /// Memoized least upper bound. The underlying computation is
  /// lubPatterns; the memo key is the (commutative) id pair.
  PatternId lub(PatternId A, PatternId B);

  /// Memoized partial order: gamma(A) subset of gamma(B), decided as
  /// lub(A, B) == B. Keyed on the ordered id pair (leq is not symmetric).
  bool leq(PatternId A, PatternId B);

  const InternerStats &stats() const { return Stats; }

private:
  /// One interned pattern: slices of the three arenas below. Node
  /// ChildBegin indices are relative to the pattern's own ChildB base,
  /// exactly as in a standalone Pattern.
  struct Rec {
    uint32_t NodeB, NodeN, ChildB, ChildN, RootB, RootN;
  };

  int DepthLimit;
  /// Lattice-operation provider; null = the default domain's inline code.
  const Domain *Dom = nullptr;
  /// Arena-backed pattern storage: all interned patterns' nodes, child
  /// slices and roots live in three shared vectors, so a miss appends
  /// (amortized no allocation) instead of copying three vectors per
  /// pattern.
  std::vector<Rec> Recs;
  std::vector<PatNode> ArenaNodes;
  std::vector<int32_t> ArenaChildren;
  std::vector<int32_t> ArenaRoots;
  /// Structural hash -> candidate ids (collisions resolved by deep
  /// comparison, exactly once per distinct pattern).
  detail::FlatMap64 Buckets;
  detail::FlatMap64 LubMemo; ///< unordered id pair -> result id
  detail::FlatMap64 LeqMemo; ///< ordered id pair -> 0/1
  Store Scratch; ///< pooled working store for lub/normalize
  // Pooled scratch for lub misses and normalization (one canonicalization
  // context, one result pattern, instantiate working vectors).
  CanonicalizeContext Ctx;
  Pattern PatBuf;
  std::vector<int64_t> CellOfBuf;
  std::vector<int64_t> RootsA;
  std::vector<int64_t> RootsB;
  std::vector<Cell> CellArgs;
  InternerStats Stats;
};

} // namespace awam

#endif // AWAM_ANALYZER_PATTERNINTERNER_H
