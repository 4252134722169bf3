//===- analyzer/Session.h - Analysis session façade -------------*- C++ -*-===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single entry point of the analyzer. An AnalysisSession wires
/// together the pieces of an analysis run — compiled program, pattern
/// interner, extension table, abstract machine, fixpoint driver, counters,
/// options — and exposes the two-line API every client (bench/, tests/,
/// examples/) uses:
///
///   AnalysisSession S(Compiled);            // or (Compiled, Options)
///   Result<AnalysisResult> R = S.analyze("qsort(glist, var, var)");
///
/// AnalyzerOptions::Driver picks the fixpoint driver. The worklist driver
/// (the default; see analyzer/Scheduler.h) answers every analyze() through
/// the session's AnalysisStore (analyzer/Store.h), created on first use:
/// the first query drains cold, a repeated one is a cache hit, and a new
/// entry replays what earlier queries recorded — every answer
/// byte-identical to a fresh session's. reanalyze(), analyzeBatch() and
/// summary export/import run on the same store. The naive driver is the
/// paper's restart loop (Section 2.2), kept as the ablation baseline: each
/// analyze() computes a fresh fixpoint, with or without interning and over
/// either table implementation, and nothing else runs under it. Both
/// drivers compute the identical extension-table fixpoint.
///
/// The meta-interpreting baseline (baseline/MetaAnalyzer.h) is a separate
/// analyzer with the same analyze() signature and result type.
///
//===----------------------------------------------------------------------===//

#ifndef AWAM_ANALYZER_SESSION_H
#define AWAM_ANALYZER_SESSION_H

#include "analyzer/Analyzer.h"
#include "analyzer/Store.h"

#include <memory>
#include <string>

namespace awam {

/// One analysis setup over a program; analyze() may be called repeatedly.
class AnalysisSession {
public:
  explicit AnalysisSession(const CompiledProgram &Program,
                           AnalyzerOptions Options = {});

  /// Analyzes from entry predicate \p Name with calling pattern \p Entry
  /// (arity = Entry's root count). Returns the fixpoint table.
  Result<AnalysisResult> analyze(std::string_view Name,
                                 const Pattern &Entry);

  /// Analyzes from a spec string; both overloads share this one parse and
  /// entry-resolution path (see parseEntrySpec for the accepted forms).
  Result<AnalysisResult> analyze(std::string_view EntrySpec);

  /// Re-analyzes the session's program from the last analyze() entry goal
  /// after the clauses of \p EditedPreds changed. Runs on the session's
  /// store: the edit invalidates there every root whose projection (the
  /// table entries its drain reached) names an edited predicate, and the
  /// re-query replays every recorded trace that ran no edited code (see
  /// analyzer/Store.h). The result — table, counters, formatted
  /// report — is byte-identical to a fresh analyze() of the edited
  /// program. Requires a prior analyze() and the worklist driver. Chains:
  /// each reanalyze records for the next.
  Result<AnalysisResult> reanalyze(const std::vector<PredSig> &EditedPreds);

  /// Like the above, but re-answers \p EntrySpec instead of the session's
  /// last entry goal. On a store shared by several clients "the
  /// most recent entry" depends on request interleaving; the multi-tenant
  /// server (analyzer/Server.h) routes each client's edits through that
  /// client's own last spec instead.
  Result<AnalysisResult> reanalyze(const std::vector<PredSig> &EditedPreds,
                                   std::string_view EntrySpec);

  /// Convenience overload: diffs \p Edited against the current program
  /// clause-by-clause to find the edited predicates, then re-analyzes with
  /// \p Edited installed as the session's program. \p Edited must outlive
  /// the session (like the constructor's program) and should be compiled
  /// against the same SymbolTable — with a different table every predicate
  /// is conservatively treated as edited (patterns embed symbol ids).
  Result<AnalysisResult> reanalyze(const CompiledProgram &Edited);

  /// Analyzes every spec of \p EntrySpecs in order and returns one result
  /// per spec. All specs are parsed and their entry predicates resolved
  /// *before any analysis runs* — a bad spec anywhere in the list aborts
  /// the whole batch up front with the usual parseEntrySpec / resolution
  /// error, leaving the session (and its store) untouched. The batch runs
  /// on the session's store: later entries replay the table work of
  /// earlier ones, with each result still byte-identical to a fresh
  /// session's analyze() of its spec. Requires the worklist driver.
  Result<std::vector<AnalysisResult>>
  analyzeBatch(const std::vector<std::string> &EntrySpecs);

  /// Serializes the session store's replay traces into a
  /// module-independent byte bundle (see
  /// AnalysisStore::exportSummaries). Creates the store if needed; errors
  /// under the naive driver.
  Result<std::string> exportSummaries();

  /// Imports a serialized bundle into the session store, banking its
  /// still-valid traces as warm-start hints for subsequent analyses (see
  /// AnalysisStore::importSummaries — answers stay byte-identical to a
  /// fresh session's whatever is imported).
  Result<AnalysisStore::ImportStats> importSummaries(std::string_view Bytes);

  /// Adjusts the driver budgets for subsequent analyses (and the store's
  /// future queries — cached store results keep the budgets they were
  /// computed under).
  void setBudgets(int MaxIterations, uint64_t MaxSteps);

  const AnalyzerOptions &options() const { return Options; }

  /// The store behind this session (nullptr until the first call that
  /// creates one; always nullptr under the naive driver).
  const AnalysisStore *store() const { return PStore.get(); }

private:
  /// The naive restart loop from the resolved entry predicate \p Pid.
  Result<AnalysisResult> analyzeNaive(int32_t Pid, const Pattern &Entry);
  /// The session's AnalysisStore, created on first use; errors under the
  /// naive driver and without interning.
  Result<AnalysisStore *> ensureStore();

  const CompiledProgram *Program = nullptr;
  AnalyzerOptions Options;
  /// The entry goal reanalyze() re-answers.
  std::string LastEntryName;
  Pattern LastEntry;
  bool HaveEntry = false;
  /// The analysis store, created by the first worklist query or summary
  /// import/export. Named PStore: the WAM heap type awam::Store
  /// (wam/Store.h) already owns the plain name.
  std::unique_ptr<AnalysisStore> PStore;
};

} // namespace awam

#endif // AWAM_ANALYZER_SESSION_H
