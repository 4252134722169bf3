//===- analyzer/Session.h - Analysis session façade -------------*- C++ -*-===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single entry point of the analyzer. An AnalysisSession owns the
/// pieces one analysis run wires together — compiled program, pattern
/// interner, extension table, abstract machine, fixpoint driver, counters,
/// options — and exposes the two-line API every client (bench/, tests/,
/// examples/) uses:
///
///   AnalysisSession S(Compiled);            // or (Compiled, Options)
///   Result<AnalysisResult> R = S.analyze("qsort(glist, var, var)");
///
/// Which fixpoint driver runs is an option (AnalyzerOptions::Driver): the
/// paper's naive restart loop, or the dependency-driven worklist scheduler
/// (the default; see analyzer/Scheduler.h). Both compute the identical
/// extension-table fixpoint.
///
/// Alternative analyzers plug in through the Backend interface — the
/// meta-interpreting baseline wraps itself as one (see
/// baseline/MetaAnalyzer.h, makeBaselineSession) so cross-validation runs
/// both analyzers through this same façade.
///
//===----------------------------------------------------------------------===//

#ifndef AWAM_ANALYZER_SESSION_H
#define AWAM_ANALYZER_SESSION_H

#include "analyzer/Analyzer.h"
#include "analyzer/Incremental.h"
#include "analyzer/Scheduler.h"
#include "analyzer/Store.h"

#include <memory>
#include <string>

namespace awam {

/// One analysis setup over a program; analyze() may be called repeatedly
/// (each call computes a fresh fixpoint).
class AnalysisSession {
public:
  /// A pluggable analysis engine. The compiled abstract machine is the
  /// built-in one; baseline analyzers adapt themselves to this interface
  /// so every client drives them through the same façade.
  class Backend {
  public:
    virtual ~Backend() = default;
    virtual Result<AnalysisResult> analyze(std::string_view Name,
                                           const Pattern &Entry) = 0;
  };

  /// Session over the compiled abstract machine (the paper's system).
  explicit AnalysisSession(const CompiledProgram &Program,
                           AnalyzerOptions Options = {});

  /// Session over a custom backend (see baseline/MetaAnalyzer.h,
  /// makeBaselineSession).
  explicit AnalysisSession(std::unique_ptr<Backend> Custom,
                           AnalyzerOptions Options = {});

  AnalysisSession(AnalysisSession &&) noexcept;
  AnalysisSession &operator=(AnalysisSession &&) noexcept;
  ~AnalysisSession();

  /// Analyzes from entry predicate \p Name with calling pattern \p Entry
  /// (arity = Entry's root count). Returns the fixpoint table.
  Result<AnalysisResult> analyze(std::string_view Name,
                                 const Pattern &Entry);

  /// Analyzes from a spec string; both overloads share this one parse and
  /// entry-resolution path (see parseEntrySpec for the accepted forms).
  Result<AnalysisResult> analyze(std::string_view EntrySpec);

  /// Re-analyzes the session's program from the last analyze() entry goal
  /// after the clauses of \p EditedPreds changed, replaying the previous
  /// run's recorded activation traces wherever they still validate (see
  /// analyzer/Incremental.h). The result — table, counters, formatted
  /// report — is byte-identical to a fresh analyze() of the edited
  /// program. Requires a prior analyze(); without recorded traces (
  /// AnalyzerOptions::Incremental off, or the naive driver) it degrades to
  /// that fresh analyze(). Chains: each reanalyze records for the next.
  Result<AnalysisResult> reanalyze(const std::vector<PredSig> &EditedPreds);

  /// Persistent-session form that re-answers \p EntrySpec instead of the
  /// session's most recent entry goal. On a store shared by several
  /// clients "the most recent entry" depends on request interleaving; the
  /// multi-tenant server (analyzer/Server.h) routes each client's edits
  /// through that client's own last spec instead. Errors on
  /// non-persistent sessions.
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
  /// error, leaving the session (and its store) untouched. When the
  /// configuration allows a persistent store (compiled backend, worklist
  /// driver, interning — AnalyzerOptions::Persistent not required), the
  /// batch shares one warm store: later entries replay the table work of
  /// earlier ones, with each result still byte-identical to a scratch
  /// analyze() of its spec. Other configurations run the specs as
  /// independent scratch analyses.
  Result<std::vector<AnalysisResult>>
  analyzeBatch(const std::vector<std::string> &EntrySpecs);

  /// Serializes the session store's derived summaries + replay traces
  /// into a module-independent byte bundle (see
  /// AnalysisStore::exportSummaries). Creates the store if needed; errors
  /// when the configuration cannot back one (custom backend, naive
  /// driver, no interning).
  Result<std::string> exportSummaries();

  /// Imports a serialized bundle into the session store, banking its
  /// still-valid traces as warm-start hints for subsequent analyses (see
  /// AnalysisStore::importSummaries — answers stay byte-identical to
  /// scratch whatever is imported).
  Result<AnalysisStore::ImportStats> importSummaries(std::string_view Bytes);

  /// Adjusts the driver budgets for subsequent analyses (and the store's
  /// future queries — cached store results keep the budgets they were
  /// computed under).
  void setBudgets(int MaxIterations, uint64_t MaxSteps);

  const AnalyzerOptions &options() const { return Options; }

  /// The extension table of the most recent analyze() over the compiled
  /// machine (nullptr before the first run or on a custom backend). On a
  /// persistent session this is the store's multi-root table.
  const ExtensionTable *table() const {
    return PStore ? &PStore->table() : Table.get();
  }

  /// The persistent store behind this session (nullptr until the first
  /// analyze()/analyzeBatch() that creates one — see
  /// AnalyzerOptions::Persistent).
  const AnalysisStore *store() const { return PStore.get(); }

  /// Scheduler statistics of the most recent worklist run (nullptr under
  /// the naive driver or a custom backend).
  const WorklistScheduler::Stats *schedulerStats() const;

  /// Replay statistics of the most recent reanalyze() (nullptr when the
  /// last run was a plain analyze() or fell back to one).
  const IncrementalScheduler::ReanalyzeStats *reanalyzeStats() const;

private:
  Result<AnalysisResult> analyzeCompiled(std::string_view Name,
                                         const Pattern &Entry);
  /// The session's AnalysisStore, created on first use; errors when the
  /// configuration cannot back one (custom backend, naive driver, no
  /// interning).
  Result<AnalysisStore *> ensureStore();
  Result<AnalysisResult> reanalyzeCompiled(const std::vector<PredSig> &Edited,
                                           uint64_t ConeEntries);
  /// Fills the statistics tail (instructions, probes, counters, items)
  /// shared by analyzeCompiled and reanalyzeCompiled.
  void finishResult(AnalysisResult &R);
  /// The dependency core of the most recent drain, whichever driver ran it.
  const SchedulerCore *lastCore() const;
  /// Entries of the current table in the reverse-dependency closure of
  /// \p Edited — the invalidation cone the upcoming reanalyze reports.
  uint64_t coneSize(const std::vector<PredSig> &Edited) const;

  const CompiledProgram *Program = nullptr;
  std::unique_ptr<Backend> Custom;
  AnalyzerOptions Options;
  /// The abstract domain AnalyzerOptions::DomainName resolved to (a static
  /// registry singleton; see analyzer/Domain.h). Set per analyze() call —
  /// null before the first run or on a custom backend.
  const Domain *Dom = nullptr;

  // Rebuilt per analyze() call; kept alive for post-run inspection.
  std::unique_ptr<PatternInterner> Interner;
  std::unique_ptr<ExtensionTable> Table;
  std::unique_ptr<AbstractMachine> Machine;
  std::unique_ptr<WorklistScheduler> Scheduler;
  std::unique_ptr<IncrementalScheduler> IncSched;
  /// Trace log of the most recent run (AnalyzerOptions::Incremental under
  /// the worklist driver only) — what the next reanalyze() replays from.
  std::unique_ptr<RunJournal> Journal;
  /// Entry goal of the most recent analyze(), re-resolved by reanalyze().
  std::string LastEntryName;
  Pattern LastEntry;
  bool HaveEntry = false;
  /// The persistent analysis store (AnalyzerOptions::Persistent, or an
  /// analyzeBatch() on a store-capable configuration). Named PStore: the
  /// WAM heap type awam::Store (wam/Store.h) already owns the plain name.
  std::unique_ptr<AnalysisStore> PStore;
};

} // namespace awam

#endif // AWAM_ANALYZER_SESSION_H
