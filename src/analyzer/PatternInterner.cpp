//===- analyzer/PatternInterner.cpp ---------------------------------------===//

#include "analyzer/PatternInterner.h"

#include "absdom/AbsOps.h"
#include "analyzer/Domain.h"

using namespace awam;

PatternId PatternInterner::intern(const PatternRef &P) {
  uint64_t H = P.hash();
  PatternId Hit =
      Buckets.findIf(H, [&](PatternId Id) { return pattern(Id) == P; });
  if (Hit != detail::FlatMap64::kEmpty) {
    ++Stats.InternHits;
    return Hit;
  }
  ++Stats.InternMisses;
  PatternId Id = static_cast<PatternId>(Recs.size());
  Rec R;
  R.NodeB = static_cast<uint32_t>(ArenaNodes.size());
  R.NodeN = static_cast<uint32_t>(P.NumNodes);
  R.ChildB = static_cast<uint32_t>(ArenaChildren.size());
  R.ChildN = static_cast<uint32_t>(childSlotsOf(P));
  R.RootB = static_cast<uint32_t>(ArenaRoots.size());
  R.RootN = static_cast<uint32_t>(P.NumRoots);
  ArenaNodes.insert(ArenaNodes.end(), P.Nodes, P.Nodes + P.NumNodes);
  ArenaChildren.insert(ArenaChildren.end(), P.ChildStore,
                       P.ChildStore + R.ChildN);
  ArenaRoots.insert(ArenaRoots.end(), P.Roots, P.Roots + P.NumRoots);
  Recs.push_back(R);
  Buckets.insert(H, Id);
  return Id;
}

PatternId PatternInterner::internNormalized(const Pattern &P) {
  if (Dom) {
    LubScratch S{Scratch, Ctx, CellOfBuf, RootsA, RootsB, CellArgs};
    Dom->normalizeEntry(P, DepthLimit, S, PatBuf);
    return intern(PatBuf);
  }
  Scratch.reset();
  instantiate(Scratch, P, CellOfBuf, RootsA);
  CellArgs.clear();
  for (int64_t A : RootsA)
    CellArgs.push_back(Cell::ref(A));
  Ctx.canonicalizeInto(Scratch, CellArgs, PatBuf, DepthLimit);
  return intern(PatBuf);
}

PatternId PatternInterner::lub(PatternId A, PatternId B) {
  if (A == B) {
    ++Stats.LubCacheHits; // x lub x = x needs no table
    return A;
  }
  // lub is commutative: normalize the key to the unordered pair.
  uint64_t Key = A < B ? (static_cast<uint64_t>(A) << 32) | B
                       : (static_cast<uint64_t>(B) << 32) | A;
  PatternId Memo = LubMemo.lookup(Key);
  if (Memo != detail::FlatMap64::kEmpty) {
    ++Stats.LubCacheHits;
    return Memo;
  }
  ++Stats.LubCacheMisses;
  if (Dom) {
    LubScratch S{Scratch, Ctx, CellOfBuf, RootsA, RootsB, CellArgs};
    Dom->lubInto(pattern(A), pattern(B), DepthLimit, S, PatBuf);
    PatternId R = intern(PatBuf);
    LubMemo.insert(Key, R);
    return R;
  }
  // Pooled equivalent of lubPatterns: instantiate both sides into the
  // scratch store, lub cell-wise, re-canonicalize into the pooled result.
  Scratch.reset();
  instantiate(Scratch, pattern(A), CellOfBuf, RootsA);
  instantiate(Scratch, pattern(B), CellOfBuf, RootsB);
  LubContext LCtx(Scratch);
  CellArgs.clear();
  for (size_t I = 0; I != RootsA.size(); ++I)
    CellArgs.push_back(
        Cell::ref(LCtx.lub(Cell::ref(RootsA[I]), Cell::ref(RootsB[I]))));
  Ctx.canonicalizeInto(Scratch, CellArgs, PatBuf, DepthLimit);
  PatternId R = intern(PatBuf);
  LubMemo.insert(Key, R);
  return R;
}

bool PatternInterner::leq(PatternId A, PatternId B) {
  if (A == B) {
    ++Stats.LeqCacheHits;
    return true;
  }
  uint64_t Key = (static_cast<uint64_t>(A) << 32) | B;
  uint32_t Memo = LeqMemo.lookup(Key);
  if (Memo != detail::FlatMap64::kEmpty) {
    ++Stats.LeqCacheHits;
    return Memo != 0;
  }
  ++Stats.LeqCacheMisses;
  bool R = lub(A, B) == B;
  LeqMemo.insert(Key, R ? 1 : 0);
  return R;
}
