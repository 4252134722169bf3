//===- analyzer/ExtensionTable.cpp ----------------------------------------===//

#include "analyzer/ExtensionTable.h"

#include <cassert>

using namespace awam;

// Index maps store table positions; position == ETEntry::Idx.

ETEntry *ExtensionTable::find(int32_t PredId, const Pattern &Call) {
  if (WhichImpl == Impl::LinearList) {
    for (ETEntry &E : Owned) {
      ++Probes;
      if (E.PredId == PredId && E.Call == Call)
        return &E;
    }
    return nullptr;
  }
  if (Interner) {
    // Interned tables index structurally through StructIndex only (one
    // flat map instead of two parallel indexes).
    uint64_t K = structKey(PredId, Call.hash());
    ++Probes; // index consultation (counted on hits and misses alike)
    bool First = true;
    uint32_t V = StructIndex.findIf(K, [&](uint32_t Pos) {
      if (!First)
        ++Probes;
      First = false;
      const ETEntry &E = Owned[Pos];
      return E.PredId == PredId && E.Call == Call;
    });
    return V == detail::FlatMap64::kEmpty ? nullptr : &Owned[V];
  }
  uint64_t H = (static_cast<uint64_t>(PredId) << 32) ^ Call.hash();
  ++Probes; // index consultation (counted on hits and misses alike)
  auto It = Index.find(H);
  if (It == Index.end())
    return nullptr;
  bool First = true;
  for (uint32_t Pos : It->second) {
    if (!First)
      ++Probes;
    First = false;
    ETEntry &E = Owned[Pos];
    if (E.PredId == PredId && E.Call == Call)
      return &E;
  }
  return nullptr;
}

const ETEntry *ExtensionTable::findExisting(int32_t PredId,
                                            PatternId CallId) const {
  assert(Interner && "id-keyed lookup requires an interner");
  if (WhichImpl == Impl::LinearList) {
    for (const ETEntry &E : Owned)
      if (E.PredId == PredId && E.CallId == CallId)
        return &E;
    return nullptr;
  }
  uint32_t V = IdIndex.lookup(idKey(PredId, CallId));
  return V == detail::FlatMap64::kEmpty ? nullptr : &Owned[V];
}

ETEntry &ExtensionTable::findOrCreate(int32_t PredId, const Pattern &Call,
                                      bool &Created) {
  if (ETEntry *E = find(PredId, Call)) {
    Created = false;
    return *E;
  }
  Created = true;
  ETEntry &E = appendEntry();
  E.PredId = PredId;
  E.Call = Call;
  if (Interner)
    E.CallId = Interner->intern(Call);
  if (WhichImpl == Impl::HashMap) {
    uint64_t H = Call.hash();
    uint32_t Pos = static_cast<uint32_t>(E.Idx);
    if (Interner) {
      IdIndex.insert(idKey(PredId, E.CallId), Pos);
      StructIndex.insert(structKey(PredId, H), Pos);
    } else {
      Index[(static_cast<uint64_t>(PredId) << 32) ^ H].push_back(Pos);
    }
  }
  return E;
}

ETEntry &ExtensionTable::findOrCreateByPattern(int32_t PredId,
                                               const Pattern &Call,
                                               bool &Created) {
  assert(Interner && "fused lookup requires an interner");
  if (WhichImpl == Impl::LinearList) {
    // Ablation combination: same scan (and probe accounting) as the
    // structural path; only a miss pays for interning.
    if (ETEntry *E = find(PredId, Call)) {
      Created = false;
      return *E;
    }
  } else {
    uint64_t K = structKey(PredId, Call.hash());
    ++Probes; // index consultation (counted on hits and misses alike)
    bool First = true;
    uint32_t V = StructIndex.findIf(K, [&](uint32_t Pos) {
      if (!First)
        ++Probes;
      First = false;
      const ETEntry &E = Owned[Pos];
      return E.PredId == PredId && E.Call == Call;
    });
    if (V != detail::FlatMap64::kEmpty) {
      Created = false;
      return Owned[V];
    }
  }
  Created = true;
  ETEntry &E = appendEntry();
  E.PredId = PredId;
  E.Call = Call;
  E.CallId = Interner->intern(Call);
  if (WhichImpl == Impl::HashMap) {
    uint32_t Pos = static_cast<uint32_t>(E.Idx);
    IdIndex.insert(idKey(PredId, E.CallId), Pos);
    StructIndex.insert(structKey(PredId, Call.hash()), Pos);
  }
  return E;
}

ETEntry *ExtensionTable::find(int32_t PredId, PatternId CallId) {
  assert(Interner && "id-keyed lookup requires an interner");
  if (WhichImpl == Impl::LinearList) {
    for (ETEntry &E : Owned) {
      ++Probes;
      if (E.PredId == PredId && E.CallId == CallId)
        return &E;
    }
    return nullptr;
  }
  ++Probes;
  uint32_t V = IdIndex.lookup(idKey(PredId, CallId));
  return V == detail::FlatMap64::kEmpty ? nullptr : &Owned[V];
}

ETEntry &ExtensionTable::findOrCreate(int32_t PredId, PatternId CallId,
                                      bool &Created) {
  if (ETEntry *E = find(PredId, CallId)) {
    Created = false;
    return *E;
  }
  Created = true;
  ETEntry &E = appendEntry();
  E.PredId = PredId;
  E.CallId = CallId;
  E.Call = Interner->pattern(CallId);
  if (WhichImpl == Impl::HashMap) {
    uint32_t Pos = static_cast<uint32_t>(E.Idx);
    IdIndex.insert(idKey(PredId, CallId), Pos);
    StructIndex.insert(structKey(PredId, E.Call.hash()), Pos);
  }
  return E;
}
