//===- analyzer/ExtensionTable.h - OLDT-style memo table --------*- C++ -*-===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The extension table of the paper's control scheme (Sections 2.2 and 5):
/// a memo mapping (predicate, calling pattern) to the lub of the success
/// patterns found so far. Multiple calling patterns are kept per predicate;
/// the success patterns of one calling pattern are summarized by lub.
///
/// The paper implements the table as a linear list of pairs (Section 6);
/// we provide that implementation plus a hashed variant. When a
/// PatternInterner is attached, entries are additionally keyed on
/// (PredId, PatternId) and the HashMap variant becomes a single exact-key
/// O(1) map lookup — the default fast path of the analyzer. The
/// structural (pattern-compared) API remains as the ablation baseline.
///
/// Entries live in a stable-address deque in creation order, so an
/// entry's position in it is its ETEntry::Idx.
///
/// The table itself is a passive memo. Scheduling state lives elsewhere:
/// the naive driver uses the per-iteration Explored flags (reset by
/// beginIteration), the worklist driver (analyzer/Scheduler.h) keys its
/// dependency graph on each entry's dense Idx and watches SuccessVersion
/// to detect stale reads. Which store roots reached an entry is the
/// AnalysisStore's business too: each root lists its entries' indices
/// (analyzer/Store.h), and an entry carries no root tags.
///
/// Probe accounting (the ablation metric) is defined uniformly across both
/// variants so their counts are comparable:
///  * LinearList: one probe per entry examined by a lookup;
///  * HashMap: one probe for the index consultation itself (counted even
///    when it finds nothing — previously misses were invisible), plus one
///    per additional candidate compared in the bucket.
///
//===----------------------------------------------------------------------===//

#ifndef AWAM_ANALYZER_EXTENSIONTABLE_H
#define AWAM_ANALYZER_EXTENSIONTABLE_H

#include "analyzer/PatternInterner.h"

#include <cassert>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

namespace awam {

/// One (calling pattern, success pattern) pair. The Pattern fields are
/// always populated (reporting, tracing and clause re-entry read them);
/// the id fields are valid only when the owning table has an interner and
/// are the hot-path handles.
struct ETEntry {
  int32_t PredId = -1;
  Pattern Call;
  std::optional<Pattern> Success;
  PatternId CallId = kInvalidPatternId;
  PatternId SuccessId = kInvalidPatternId;
  /// Creation position: a dense key for per-entry side tables (the
  /// worklist scheduler's dependency graph) and the creation order (which
  /// for the naive driver is the DFS first-call order). Equal to the
  /// entry's table position.
  int32_t Idx = -1;
  /// Naive driver: set while / after the entry was explored in the current
  /// iteration (reset by beginIteration).
  bool Explored = false;
  /// Worklist driver: true once the entry's clauses have been explored by
  /// some activation run. Such entries answer calls from the memo unless
  /// the scheduler asks for an inline re-exploration.
  bool EverExplored = false;
  /// Bumped every time Success changes (the first set included). Readers
  /// record the version they observed; the scheduler re-enqueues a reader
  /// when a recorded version is no longer current.
  uint32_t SuccessVersion = 0;
};

/// The memo table.
class ExtensionTable {
public:
  /// Lookup structure used to find entries.
  enum class Impl {
    LinearList, ///< the paper's implementation: scan a list of pairs
    HashMap,    ///< hash on (predicate, pattern) or exact (PredId, PatternId)
  };

  explicit ExtensionTable(Impl I = Impl::LinearList,
                          PatternInterner *In = nullptr)
      : WhichImpl(I), Interner(In) {}

  /// The attached interner (nullptr when the table runs the structural
  /// baseline path).
  PatternInterner *interner() const { return Interner; }

  /// Id-keyed lookup that neither creates nor counts probes (requires an
  /// attached interner): the read-only lookup journal replay's simulation
  /// uses. In HashMap mode it is one exact-key map probe.
  const ETEntry *findExisting(int32_t PredId, PatternId CallId) const;

  /// Returns the entry for (\p PredId, \p Call), creating it if missing;
  /// sets \p Created accordingly. Entry references are stable. Structural
  /// comparison — the seed/ablation path.
  ETEntry &findOrCreate(int32_t PredId, const Pattern &Call, bool &Created);

  /// Returns the entry if present (structural comparison).
  ETEntry *find(int32_t PredId, const Pattern &Call);

  /// Id-keyed variants; require an attached interner. In HashMap mode the
  /// lookup is one exact-key map probe.
  ETEntry &findOrCreate(int32_t PredId, PatternId CallId, bool &Created);
  ETEntry *find(int32_t PredId, PatternId CallId);

  /// Fused lookup for the hot call path (requires an attached interner):
  /// probes by (PredId, structural hash) directly, so a hit — the common
  /// case after the first iteration — needs neither an interner probe nor
  /// a second id-keyed probe. Only a miss interns \p Call (which is where
  /// the entry's CallId comes from). Probe accounting matches the
  /// structural HashMap path: one probe for the consultation plus one per
  /// additional candidate compared.
  ETEntry &findOrCreateByPattern(int32_t PredId, const Pattern &Call,
                                 bool &Created);

  /// Clears the per-iteration Explored flags (naive driver only).
  void beginIteration() {
    for (ETEntry &E : Owned)
      E.Explored = false;
  }

  /// Records that \p E's success pattern changed.
  void noteSuccessChanged(ETEntry &E) { ++E.SuccessVersion; }

  /// The entries in creation (== Idx) order.
  const std::deque<ETEntry> &entries() const { return Owned; }
  size_t size() const { return Owned.size(); }

  /// The entry at position \p Pos (== ETEntry::Idx).
  ETEntry &entryAt(size_t Pos) {
    assert(Pos < Owned.size());
    return Owned[Pos];
  }
  const ETEntry &entryAt(size_t Pos) const {
    assert(Pos < Owned.size());
    return Owned[Pos];
  }

  /// Approximate heap bytes this table holds: the entries (including
  /// their pattern payloads) and the lookup indexes. The table term of the
  /// store eviction accounting (analyzer/Server.h).
  size_t bytesUsed() const {
    size_t B = IdIndex.bytesUsed() + StructIndex.bytesUsed();
    for (const ETEntry &E : Owned)
      B += sizeof(ETEntry) + patternHeapBytes(E.Call) +
           (E.Success ? patternHeapBytes(*E.Success) : 0);
    for (const auto &[H, Cands] : Index)
      B += sizeof(H) + Cands.capacity() * sizeof(uint32_t);
    return B;
  }

  /// Number of lookup probes performed (ablation metric; see file comment
  /// for the per-variant definition).
  uint64_t probeCount() const { return Probes; }

private:
  /// Appends a fresh entry at position size() and returns it with Idx
  /// assigned; the caller fills the key fields and indexes it.
  ETEntry &appendEntry() {
    ETEntry &E = Owned.emplace_back();
    E.Idx = static_cast<int32_t>(Owned.size() - 1);
    return E;
  }

  static uint64_t idKey(int32_t PredId, PatternId CallId) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(PredId)) << 32) |
           CallId;
  }

  static uint64_t structKey(int32_t PredId, uint64_t Hash) {
    return Hash ^ (static_cast<uint64_t>(static_cast<uint32_t>(PredId)) *
                   0x9e3779b97f4a7c15ull);
  }

  Impl WhichImpl;
  PatternInterner *Interner;
  /// Entry storage (stable addresses) in creation order.
  std::deque<ETEntry> Owned;
  /// HashMap impl, structural path: pattern hash -> candidate positions.
  std::unordered_map<uint64_t, std::vector<uint32_t>> Index;
  /// HashMap impl, interned path: exact (PredId, PatternId) -> position.
  detail::FlatMap64 IdIndex;
  /// HashMap impl, interned path: (PredId, structural hash) -> position
  /// for the fused one-probe call lookup.
  detail::FlatMap64 StructIndex;
  uint64_t Probes = 0;
};

} // namespace awam

#endif // AWAM_ANALYZER_EXTENSIONTABLE_H
