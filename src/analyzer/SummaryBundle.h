//===- analyzer/SummaryBundle.h - Exported analysis summaries ---*- C++ -*-===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unit of cross-module summary sharing: a SummaryBundle packages what
/// an AnalysisStore derived about a module — per-predicate call/success
/// pattern pairs plus the banked activation traces that derived them —
/// into a byte string another store can import, so user-module analysis
/// warm-starts against a library's summaries instead of re-deriving them.
///
/// Everything in a bundle is *module-independent*: predicates are keyed by
/// (name, arity), and patterns are serialized with symbol ids resolved to
/// their name strings and re-interned into the importing side's
/// SymbolTable. In memory, summaries and traces hold PatternIds of the
/// bundle's Patterns table: the exporting store's own interner for a
/// bundle exportBundle() built (it shares that append-only interner, so
/// serialize writes straight from its arena), or a table the bundle owns,
/// holding each distinct pattern once, for a deserialized one. Import
/// re-interns each distinct pattern its banked traces use into the
/// importing store's interner once.
///
/// A header records the exporting domain, depth limit and module
/// fingerprint; each referenced predicate additionally carries its
/// CodeModule::predicateFingerprint, the staleness guard — an imported
/// trace only banks if every predicate whose clause code it replays hashes
/// identically in the importing module (the hash is relocation-invariant,
/// so a library predicate fingerprints the same inside any link).
///
/// Soundness does not rest on that guard: an imported trace is only a
/// *replay hint*. The incremental drain revalidates every recorded table
/// interaction against the live query state before applying a trace
/// (analyzer/Incremental.h), so a stale bundle costs warmth, never
/// correctness, and the warm result stays byte-identical to a cold
/// analysis of the importing module. The fingerprint guard exists to drop
/// traces that *would replay wrongly despite validating* — validation
/// assumes unchanged clause code for the predicates a trace executes — and
/// to keep obviously-stale bundles from wasting validation work.
///
//===----------------------------------------------------------------------===//

#ifndef AWAM_ANALYZER_SUMMARYBUNDLE_H
#define AWAM_ANALYZER_SUMMARYBUNDLE_H

#include "analyzer/PatternInterner.h"
#include "analyzer/RunJournal.h"
#include "support/Error.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace awam {

/// In-memory form of an exported bundle. serialize/deserialize round-trip
/// it through the byte format (deterministic: equal bundles serialize to
/// equal bytes, whatever SymbolTable either side uses).
struct SummaryBundle {
  /// Format version written by serialize; deserialize rejects others.
  static constexpr uint32_t kVersion = 1;

  /// One (pred, calling pattern) -> success pattern summary, for
  /// reporting and tests; a Success of kInvalidPatternId means the call
  /// never succeeds.
  struct Summary {
    PredSig Sig;
    PatternId Call = kInvalidPatternId;
    PatternId Success = kInvalidPatternId;
  };

  /// Per-predicate clause-code hash at export time
  /// (CodeModule::predicateFingerprint) for every predicate any trace
  /// references — the import-side staleness guard.
  struct PredCode {
    PredSig Sig;
    uint64_t CodeFp = 0;
  };

  std::string DomainName;        ///< exporting store's abstract domain
  int32_t DepthLimit = 0;        ///< pattern depth cut the store ran with
  uint64_t ModuleFingerprint = 0; ///< exporting CodeModule::fingerprint()

  /// The table every pattern id of Summaries and Traces refers to (see
  /// the file comment). Its views are transient: never hold one across an
  /// intern into the same table.
  std::shared_ptr<const PatternInterner> Patterns;

  std::vector<Summary> Summaries;
  std::vector<PredCode> PredCodes;
  /// Replayable activation traces, in bank order. Trace PredIds are the
  /// exporting module's ids, resolved through TraceSigs.
  std::vector<std::shared_ptr<const RunTrace>> Traces;
  /// PredId -> signature for every id the traces reference.
  std::vector<std::pair<int32_t, PredSig>> TraceSigs;

  /// Serializes to the byte format. \p Syms must be the table the
  /// patterns' symbol ids refer to.
  std::string serialize(const SymbolTable &Syms) const;

  /// Parses \p Bytes, interning symbol names into \p Syms (pattern symbol
  /// ids in the result refer to \p Syms) and patterns into a new Patterns
  /// table. Errors on a bad magic, version, truncation or a count the
  /// remaining bytes cannot hold, and on anything import or replay could
  /// trip over: negative, duplicate or unlisted trace predicate ids,
  /// unknown op or pattern-node kinds, Memo/Enter ops without a predicate,
  /// Exit/Grow ops with one, Grow ops without a summary, and Enter/Exit
  /// nesting that pops the root frame early or never closes it. Predicate
  /// ids keep their exported values, which may be arbitrarily large:
  /// consumers resolve them through TraceSigs and size nothing by them.
  static Result<SummaryBundle> deserialize(std::string_view Bytes,
                                           SymbolTable &Syms);
};

} // namespace awam

#endif // AWAM_ANALYZER_SUMMARYBUNDLE_H
