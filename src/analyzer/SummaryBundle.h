//===- analyzer/SummaryBundle.h - Exported analysis summaries ---*- C++ -*-===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The unit of cross-module summary sharing: a SummaryBundle packages the
/// activation traces an AnalysisStore banked into a byte string another
/// store can import, so user-module analysis warm-starts against a
/// library's traces instead of re-deriving them.
///
/// The byte format (version 3) holds only what import reads, each thing
/// once: a header (magic, version, a 64-bit checksum of every byte after
/// it, domain, depth limit); a predicate table of (pid, name, arity, code
/// hash) for exactly the pids the traces use, sorted by pid; a pattern
/// table holding each pattern the traces use once; and the traces. A
/// trace is its kind (u8: 0 run, 1 frame — see analyzer/RunJournal.h; the
/// two replay at different places and differ in how they count steps),
/// root pid, calling pattern, pre-run summary, steps and ops; its ops are
/// fixed records (u8 kind, u8 created, u32 pred, u32 call, u32 summary;
/// 0xFFFFFFFF means none), where an Exit's two last fields are the low and
/// high halves of its frame's step count. Patterns are numbered in order
/// of first use over the traces, not by interner id, so the re-export of a
/// store that imported a bundle and answered the same queries is
/// byte-identical to it. The checksum (SummaryBundle::seal) catches
/// accidental corruption: bytes changed in transit or at rest would
/// otherwise import whenever they still parse, and what a validated trace
/// recorded is applied as recorded.
///
/// Everything in a bundle is *module-independent*: predicates resolve by
/// (name, arity), and pattern symbols serialize as name strings that
/// re-intern into the importing side's SymbolTable. In memory, traces hold
/// PatternIds of the bundle's Patterns table: the exporting store's own
/// interner for the bundle a store serializes (it never leaves the
/// store), or a table a deserialized bundle owns. Import re-interns each
/// distinct pattern its banked traces use into the store's interner once.
///
/// The code hash is CodeModule::predicateFingerprint, the staleness guard:
/// an imported trace only banks if every predicate it uses hashes
/// identically in the importing module (the hash is relocation-invariant,
/// so a library predicate hashes the same inside any link).
///
/// Soundness does not rest on that guard: an imported trace is only a
/// *replay hint*. The incremental drain revalidates every recorded table
/// interaction against the live query state before applying a trace
/// (analyzer/Incremental.h), so a stale bundle costs warmth, never
/// correctness, and the warm result stays byte-identical to a cold
/// analysis of the importing module. The guard exists to drop traces that
/// *would replay wrongly despite validating* — validation assumes
/// unchanged clause code for the predicates a trace executes — and to keep
/// obviously-stale bundles from wasting validation work.
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
  static constexpr uint32_t kVersion = 3;

  /// One predicate the traces use: its exporting-module id, signature and
  /// clause-code hash at export time (CodeModule::predicateFingerprint).
  struct Pred {
    int32_t Pid = -1;
    PredSig Sig;
    uint64_t CodeHash = 0;
  };

  std::string DomainName; ///< exporting store's abstract domain
  int32_t DepthLimit = 0; ///< pattern depth cut the store ran with

  /// Every predicate id the traces use.
  std::vector<Pred> Preds;

  /// The table every pattern id of Traces refers to (see the file
  /// comment). Its views are transient: never hold one across an intern
  /// into the same table.
  std::shared_ptr<const PatternInterner> Patterns;

  /// Replayable run and frame traces, in bank order. Trace PredIds are the
  /// exporting module's ids, resolved through Preds.
  std::vector<std::shared_ptr<const RunTrace>> Traces;

  /// Serializes to the byte format. \p Syms must be the table the
  /// patterns' symbol ids refer to.
  std::string serialize(const SymbolTable &Syms) const;

  /// Parses \p Bytes, interning symbol names into \p Syms (pattern symbol
  /// ids in the result refer to \p Syms) and patterns into a new Patterns
  /// table. Errors on a bad magic, version or checksum, truncation or a
  /// count the remaining bytes cannot hold, and on anything import or
  /// replay could trip over: negative, duplicate or unlisted predicate
  /// ids, unknown trace, op or pattern-node kinds, pattern nodes whose
  /// child count does not fit their kind or whose child edges form a
  /// cycle, pattern indexes past the pattern table, trace roots and
  /// Memo/Enter ops without a predicate or calling pattern, Exit/Grow ops
  /// with a predicate, Grow ops with a calling pattern or without a
  /// summary, and Enter/Exit nesting that pops the root frame early or
  /// never closes it. Predicate ids keep their exported values, which may
  /// be arbitrarily large: consumers resolve them through Preds and size
  /// nothing by them.
  static Result<SummaryBundle> deserialize(std::string_view Bytes,
                                           SymbolTable &Syms);

  /// Writes the checksum of \p Bytes' payload (every byte after the
  /// checksum field) into their header, as serialize does last: a 64-bit
  /// hash taken eight bytes at a time (a warm ladder operation imports a
  /// bundle every time), which tells apart any two payloads that differ
  /// in one byte. \p Bytes must be at least a header long.
  static void seal(std::string &Bytes);
};

} // namespace awam

#endif // AWAM_ANALYZER_SUMMARYBUNDLE_H
