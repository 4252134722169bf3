//===- analyzer/Store.h - Persistent multi-root analysis store --*- C++ -*-===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-lived half of the analyzer: an AnalysisStore owns one
/// PatternInterner and one multi-root ExtensionTable that survive across
/// entry queries of the same compiled module, with each root's projection
/// and run journal. The extension table is monotone — every
/// (pred, calling-pattern) summary a converged query derives is the least
/// fixpoint at that key and therefore a sound, reusable memo for any later
/// query — which is what makes a shared store consistent at all.
///
/// The interner is append-only and is the one id space of the store:
/// every table entry's CallId/SuccessId, every root's CallId and every
/// pattern of every banked trace (analyzer/RunJournal.h) is an id of it,
/// so ids stay valid for the store's lifetime and comparing two of them
/// compares the patterns. Only a symbol-table change (resetState) starts
/// a new interner, and it drops everything that held the old one's ids.
///
/// Query protocol (*build-aside-and-merge*):
///
///  1. Repeat query: a root already merged answers from the per-root
///     result cache — the root's counters plus its projection's entries,
///     read from the store table — without draining.
///  2. New query: the worklist drain runs over a *fresh* per-query table
///     that shares only the store's interner, with trace recording on.
///     Its replay bank is the store's pool (every root's journal plus the
///     imported traces): every banked trace whose validation (by pattern
///     id) holds is applied instead of executed, and the rest fall back to
///     real execution. A cold query (empty pool, as a fresh store's first
///     one) executes everything. Replay validation makes the drain
///     byte-identical to a cold one of that entry (see
///     analyzer/Incremental.h for the induction), so the per-root
///     projection equals what a fresh session reports.
///  3. Merge: only a *converged* query merges. Each query-table entry is
///     installed into the store table under its interned key (or found —
///     converged summaries of a shared key are equal, both being the least
///     fixpoint at that key) and listed in the root's projection. The
///     projections are the one record of which roots reached an entry;
///     every table entry lies in some valid root's. The drain's dependency
///     edges are not kept: they serve its own scheduling only. The first
///     merge into an empty table adopts the query's table whole, Idx for
///     Idx, instead of re-hashing it. Failing queries — unknown entry,
///     machine error, budget hit — leave the store untouched by
///     construction: nothing is written until the merge (the strong
///     guarantee).
///
/// The determinism contract is deliberately *per-root projection*, not
/// whole-table identity: which entries the store holds depends on which
/// queries ran (the union of their query tables), but each root's
/// projection — entry set, creation order, summaries, counters — is the
/// cold run of that entry alone and hence independent of every other
/// query and of query order. canonicalDump() exposes the order-free view
/// of the whole store (sorted entries with sorted root tags), which *is*
/// permutation-invariant.
///
/// reanalyze() invalidates roots by their projections: a root whose
/// projection holds an entry of an edited (or no longer resolving)
/// predicate loses cache and projection; every other root survives warm.
/// The machine reaches clause code only through calls (no builtin calls a
/// predicate), and every call, replayed frame and memo read of a drain
/// lands in its query table, so a root whose projection names no edited
/// predicate runs the same clauses against the same table answers on the
/// edited program. Every journal — an invalidated root's too — keeps the
/// traces that ran no edited code, and the clean frames of those that did
/// (frame traces, analyzer/RunJournal.h), so the re-query of an
/// invalidated root replays whatever the edit left valid: whole runs at
/// queue pops, and inside the runs that must execute, every inline
/// exploration that ran no edited code. This is the only incremental path:
/// AnalysisSession::reanalyze() always runs here.
///
//===----------------------------------------------------------------------===//

#ifndef AWAM_ANALYZER_STORE_H
#define AWAM_ANALYZER_STORE_H

#include "analyzer/Analyzer.h"
#include "analyzer/Incremental.h"
#include "analyzer/SummaryBundle.h"

#include <memory>
#include <string>
#include <vector>

namespace awam {

/// Persistent analysis state of one compiled module. AnalysisSession wraps
/// one, and answers every worklist analyze(), batch and reanalyze()
/// through it. AnalysisServer (analyzer/Server.h) keeps one session, and
/// so one store, per (module fingerprint, domain).
class AnalysisStore {
public:
  /// Cumulative store statistics (reporting; not part of any determinism
  /// contract).
  struct Stats {
    uint64_t Queries = 0;       ///< queries that resolved their entry
    uint64_t CacheHits = 0;     ///< answered from the per-root result cache
    uint64_t ColdQueries = 0;   ///< drained with an empty journal bank
    uint64_t WarmQueries = 0;   ///< drained by validated journal replay
    uint64_t ReplayedRuns = 0;  ///< warm drains: queue pops replayed
    uint64_t ExecutedRuns = 0;  ///< warm drains: queue pops executed
    uint64_t ReplayedActivations = 0;
    uint64_t ExecutedActivations = 0;
    uint64_t NewEntries = 0;    ///< merged entries new to the store
    uint64_t SharedEntries = 0; ///< merged entries another root already owned
    uint64_t Reanalyses = 0;
    uint64_t InvalidatedRoots = 0;   ///< roots an edit invalidated
    uint64_t InvalidatedEntries = 0; ///< entries no surviving root held
    // Journal-bank hygiene (long-lived stores; see compactJournals).
    uint64_t Compactions = 0;      ///< compaction passes run
    uint64_t CompactedTraces = 0;  ///< trace handles dropped by compaction
    // Cross-module summary sharing (see exportSummaries/importSummaries).
    uint64_t BundlesImported = 0;  ///< importSummaries calls that banked
    uint64_t ImportedTraces = 0;   ///< traces the imported bank holds
  };

  /// What one importSummaries call did with the bundle's traces.
  struct ImportStats {
    uint64_t BundleTraces = 0;     ///< traces the bundle carried
    uint64_t Banked = 0;           ///< imported into the replay bank
    uint64_t DroppedUnresolved = 0; ///< referenced a predicate this module
                                    ///< does not define
    uint64_t DroppedStale = 0;     ///< clause-code fingerprint mismatch
  };

  /// \p Program must outlive the store. The store always runs the worklist
  /// driver over an interned table (its reuse machinery is defined in
  /// those terms); AnalysisSession reports a descriptive error for other
  /// configurations before constructing one.
  AnalysisStore(const CompiledProgram &Program, AnalyzerOptions Options);
  AnalysisStore(const AnalysisStore &) = delete;
  AnalysisStore &operator=(const AnalysisStore &) = delete;
  ~AnalysisStore();

  /// Analyzes entry \p Name with calling pattern \p Entry against the
  /// store. The result is byte-identical (per formatAnalysis) to a fresh
  /// store's answer for the same entry; converged results are merged and
  /// cached, failing queries leave the store untouched.
  Result<AnalysisResult> query(std::string_view Name, const Pattern &Entry);

  /// Spec-string form (see parseEntrySpec).
  Result<AnalysisResult> query(std::string_view EntrySpec);

  /// The clauses of \p EditedPreds changed (in place — the module object
  /// is unchanged): invalidates the roots whose projection names an
  /// edited predicate, then answers (\p Name, \p Entry) warm. On an empty
  /// store nothing is invalidated and the query runs cold.
  Result<AnalysisResult> reanalyze(const std::vector<PredSig> &EditedPreds,
                                   std::string_view Name,
                                   const Pattern &Entry);

  /// The program was recompiled as \p Edited (diffed clause-by-clause;
  /// should share the store's SymbolTable — with a distinct table every
  /// predicate is conservatively treated as edited and the store resets),
  /// then answers (\p Name, \p Entry). \p Edited replaces the store's
  /// program and must outlive it.
  Result<AnalysisResult> reanalyze(const CompiledProgram &Edited,
                                   std::string_view Name,
                                   const Pattern &Entry);

  /// Adjusts the driver budgets for subsequent queries. Cached projections
  /// keep the budgets they were computed under.
  void setBudgets(int MaxIterations, uint64_t MaxSteps) {
    Options.MaxIterations = MaxIterations;
    Options.MaxSteps = MaxSteps;
  }

  const AnalyzerOptions &options() const { return Options; }
  const CompiledProgram &program() const { return *Program; }

  /// The multi-root table: the union of the tables of the valid roots'
  /// queries.
  const ExtensionTable &table() const { return *Table; }

  const Stats &stats() const { return St; }

  /// Roots currently merged and valid (invalidated roots don't count).
  size_t numRoots() const;

  /// Approximate heap bytes of the store's long-lived state: interner
  /// arenas + multi-root table + banked journals (trace objects counted
  /// once — they are shared across journals by handle; their patterns are
  /// interner ids) + per-root projections (entry indices). The unit the
  /// server's LRU-by-bytes eviction policy meters (--max-store-bytes).
  uint64_t bytesUsed() const;

  /// Journal-bank hygiene for long-lived stores: drops error traces and
  /// deduplicates shared trace handles across the pool (a trace stays in
  /// the first bank, in pool order, that holds it). The bank is a replay
  /// *hint* — every banked trace is revalidated against the live query
  /// state before it is applied (Incremental.h), so dropping handles can
  /// cost warmth but never changes any answer.
  /// Returns the number of handles dropped. query() triggers this
  /// automatically once the bank's duplication factor crosses
  /// kCompactionFactor (observable through Stats::Compactions).
  uint64_t compactJournals();

  /// Serializes the pooled run and frame traces, with the clause-code hash
  /// of every predicate they use, into a module-independent bundle
  /// another store can import (analyzer/SummaryBundle.h) — the byte
  /// string services persist and ship between stores. A store with no
  /// merged roots exports an empty (but valid) bundle.
  std::string exportSummaries() const;

  /// Parses the bundle \p Bytes, resolves its traces against this store's
  /// module, drops the ones that reference missing predicates or
  /// predicates whose clause code hashes differently (the staleness
  /// guard), and banks the rest as replay hints the next queries
  /// warm-start from, re-keyed to this store's interner (each distinct
  /// pattern they use is interned once). Rejects malformed bytes and
  /// bundles from a different abstract domain or depth limit (their
  /// patterns mean different things), leaving the store as it was. Banked
  /// traces are validated on first use — the warm drain stays
  /// byte-identical to a cold one whatever exported bundle is imported,
  /// stale or not. What a validated trace recorded (its summary growth and
  /// costs) is applied as recorded, so bytes altered after export can
  /// change answers.
  Result<ImportStats> importSummaries(std::string_view Bytes);

  /// Order-free rendering of the whole store: one line per entry —
  /// predicate, calling pattern, summary, sorted root tags — sorted
  /// lexicographically. Two stores that answered the same query set in any
  /// order dump identically (the order-independence contract).
  std::string canonicalDump(const SymbolTable &Syms) const;

private:
  /// One merged query root: its identity (name and interned entry
  /// pattern), the scalar fields of its result, its projection (store
  /// entry indices in the query's creation order), and the run journal
  /// later queries warm-start from. An invalidated root keeps its slot and
  /// its filtered journal; its re-query reuses both.
  struct RootInfo {
    std::string Name;
    int32_t Pid = -1;
    PatternId CallId = kInvalidPatternId; ///< normalized entry pattern
    bool Valid = false;
    /// The merged query's result with no Items: answer() rebuilds them
    /// from EntryIdxs, so each summary is held once, in the store table.
    AnalysisResult Answer;
    std::vector<int32_t> EntryIdxs;
    std::unique_ptr<RunJournal> Journal;
  };

  /// The bundle exportSummaries() serializes. Its Patterns is the store's
  /// interner (no pattern is copied), so it never leaves the store.
  SummaryBundle exportBundle() const;
  /// importSummaries() of a bundle as deserialize parsed it.
  Result<ImportStats> importBundle(const SummaryBundle &B);

  int findRootSlot(std::string_view Name, PatternId CallId) const;
  /// True when every table entry lies in some valid root's projection —
  /// which canonicalDump relies on. Merges keep it by adding a
  /// projection per entry they install, and invalidation rebuilds the
  /// table from the valid roots alone. Asserted after both.
  bool projectionsCoverTable() const;
  /// The result of the merged root \p RI: its Answer with one item per
  /// projection entry, read from the store table.
  AnalysisResult answer(const RootInfo &RI) const;
  /// The replay pool: every root's journal (valid or not), then the
  /// imported bank, deduplicated by trace address (firstSighting), error
  /// traces skipped.
  /// query() replays from it, exportBundle() ships it and compaction folds
  /// duplicates across it. \p Handles, when non-null, receives the trace
  /// handle count before deduplication.
  TraceBank pool(size_t *Handles = nullptr) const;
  /// Merges a converged query: its table \p QTable (moved from when the
  /// store's table is empty, which then adopts it whole), its journal and
  /// its item-less result \p R, under the root (\p Name, \p CallId).
  /// Returns the root's slot.
  int mergeQuery(std::string_view Name, int32_t Pid, PatternId CallId,
                 ExtensionTable &QTable, std::unique_ptr<RunJournal> Journal,
                 AnalysisResult R);
  /// Invalidates every valid root whose own predicate or any projection
  /// entry's predicate is in \p Edited or no longer resolves in \p NewP's
  /// module, and rebuilds the physical table from the survivors with
  /// predicate ids re-resolved there; every bank keeps its traces that ran
  /// no edited code and the clean frames of the others. Installs \p NewP
  /// as the store's program.
  void invalidate(const CompiledProgram &NewP,
                  const std::vector<PredSig> &Edited);
  void resetState();

  const CompiledProgram *Program;
  AnalyzerOptions Options;
  /// The abstract domain Options.DomainName resolved to (falls back to the
  /// default domain on unknown names — AnalysisSession validates the name
  /// with a descriptive error before constructing a store).
  const Domain *Dom = nullptr;
  /// Append-only: every id a table entry, root or banked trace holds is
  /// this interner's. Shared with the bundles exportBundle() returns.
  std::shared_ptr<PatternInterner> Interner;
  std::unique_ptr<ExtensionTable> Table;
  std::vector<RootInfo> Roots;
  /// Foreign traces banked by importBundle, pooled into every query's
  /// replay source alongside the roots' own journals. Pure warmth: replay
  /// validation re-derives everything it applies.
  std::unique_ptr<RunJournal> Imported;
  Stats St;
};

} // namespace awam

#endif // AWAM_ANALYZER_STORE_H
