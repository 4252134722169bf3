//===- analyzer/Analyzer.h - Analysis options and results -------*- C++ -*-===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared vocabulary of the analysis drivers: configuration
/// (AnalyzerOptions), results (AnalysisResult, PerfCounters), entry-goal
/// specs (parseEntrySpec), and report formatting. The drivers themselves
/// live behind the AnalysisSession façade (analyzer/Session.h) — the naive
/// restart loop of the paper, and the dependency-driven worklist scheduler
/// (analyzer/Scheduler.h), which runs only as an AnalysisStore query
/// (analyzer/Store.h).
///
//===----------------------------------------------------------------------===//

#ifndef AWAM_ANALYZER_ANALYZER_H
#define AWAM_ANALYZER_ANALYZER_H

#include "analyzer/ExtensionTable.h"
#include "analyzer/RunJournal.h"
#include "compiler/ModuleLink.h"
#include "compiler/ProgramCompiler.h"

#include <optional>
#include <string>
#include <vector>

namespace awam {

class Domain;

/// Which fixpoint driver runs the abstract machine.
enum class DriverKind {
  /// The paper's loop (Section 2.2): restart the entry goal, re-exploring
  /// every reachable activation, until an iteration changes nothing.
  Naive,
  /// Semi-naive worklist (analyzer/Scheduler.h): re-run exactly the
  /// activations whose recorded table reads changed. Identical fixpoint,
  /// far fewer activation replays.
  Worklist,
};

/// Analyzer configuration.
struct AnalyzerOptions {
  int DepthLimit = kDefaultDepthLimit;
  /// Fixpoint driver. Naive is the paper-faithful ablation baseline; the
  /// worklist driver answers through the session's AnalysisStore and
  /// requires interning.
  DriverKind Driver = DriverKind::Worklist;
  /// Lookup structure for the extension table. The hashed variant is the
  /// default; the paper's linear list remains available for the ablation
  /// benches (bench/ablation_et, bench/ablation_interning).
  ExtensionTable::Impl TableImpl = ExtensionTable::Impl::HashMap;
  /// Hash-cons patterns and memoize lub/leq by PatternId (the fast path).
  /// Turning this off reproduces the seed analyzer byte-for-byte — the
  /// "no interning" ablation baseline. The computed fixpoint table is
  /// identical either way.
  bool UseInterning = true;
  /// Driver budget: naive iterations, or worklist sweeps (the worklist
  /// analogue of an iteration — see Scheduler.h). Exceeding it yields a
  /// sound partial table with Converged = false.
  int MaxIterations = 1000;
  uint64_t MaxSteps = 200'000'000;
  /// Ignored: every worklist analyze() answers through the session's
  /// AnalysisStore (analyzer/Store.h). Kept only because the repository
  /// benchmark (perfbench/) still sets it.
  bool Persistent = false;
  /// Abstract domain to analyze under (see analyzer/Domain.h): "modes"
  /// (the paper's mode/type/aliasing domain, default), "pos" (groundness
  /// dependencies), or "det" (determinism facts). Unknown names are
  /// rejected with the registered list; non-default domains require the
  /// interned fast path (UseInterning).
  std::string DomainName = "modes";
};

/// The paper-faithful seed configuration — naive restart loop over a
/// LinearList table without interning — kept as the ablation baseline.
inline AnalyzerOptions seedAnalyzerOptions() {
  AnalyzerOptions O;
  O.Driver = DriverKind::Naive;
  O.TableImpl = ExtensionTable::Impl::LinearList;
  O.UseInterning = false;
  return O;
}

/// Hot-path statistics of one analysis run (see DESIGN.md, "Performance
/// architecture"). The interner counters are zero when interning is
/// disabled; the scheduler counters are zero under the naive driver.
struct PerfCounters {
  uint64_t InternHits = 0;
  uint64_t InternMisses = 0;      ///< == distinct patterns interned
  uint64_t LubCacheHits = 0;
  uint64_t LubCacheMisses = 0;    ///< lubs actually computed
  uint64_t LeqCacheHits = 0;
  uint64_t LeqCacheMisses = 0;
  uint64_t ETProbes = 0;          ///< extension-table lookup probes
  uint64_t Instructions = 0;      ///< abstract WAM instructions executed
  uint64_t DistinctPatterns = 0;  ///< interner size at the fixpoint
  /// Activation replays: explorations of some entry's clause list, over
  /// the whole analysis. The driver-comparison metric (the worklist
  /// scheduler exists to shrink it).
  uint64_t ActivationRuns = 0;
  uint64_t SchedulerRuns = 0;     ///< activations launched from the queue
  uint64_t DepEdges = 0;          ///< dependency edges recorded
};

class AbstractMachine;

/// Fills \p C after a drain of \p Machine over \p Table: instructions,
/// activation runs and table probes, and — when \p Table has an interner
/// — the interner's activity since \p Before plus its size. The naive
/// loop and the store query both report through it. Leaves the scheduler
/// counters alone.
void fillRunCounters(PerfCounters &C, const AbstractMachine &Machine,
                     const ExtensionTable &Table,
                     const InternerStats &Before = {});

/// Final analysis output: the extension table plus statistics.
struct AnalysisResult {
  struct Item {
    int32_t PredId;
    std::string PredLabel;
    Pattern Call;
    std::optional<Pattern> Success;
  };
  std::vector<Item> Items;
  /// Naive driver: restart iterations run. Worklist driver: sweeps run.
  int Iterations = 0;
  bool Converged = false;
  PerfCounters Counters;
  /// The domain the analysis ran under (a static registry singleton;
  /// always valid to keep). Null on results built outside the session
  /// drivers (trace mode, baseline backend) — formatting falls back to
  /// the default rendering then.
  const Domain *Dom = nullptr;
};

/// Builds an entry calling pattern from per-argument simple kinds.
Pattern makeEntryPattern(const std::vector<PatKind> &ArgKinds);

/// Parses an entry goal specification into (name, pattern). Accepted
/// forms (whitespace is insignificant around the name and arguments):
///  * "main"                     — arity 0;
///  * "qsort/3"                  — name/arity shorthand, all-any arguments;
///  * "qsort(glist, var, var)"   — one form per argument: any, nv,
///    g/ground, const, atom, int/integer, var, a Klist (e.g. glist,
///    anylist), or an integer literal.
/// Errors name the offending argument.
Result<std::pair<std::string, Pattern>>
parseEntrySpec(std::string_view Spec);

/// Parses a NAME/ARITY predicate signature, the operand of
/// `analyze_file --edit` and of the server's `edit` verb: a non-empty
/// name, '/', then decimal digits whose value fits in int32_t. Anything
/// else (no slash, no digits, a sign, spaces, overflow) is nullopt.
std::optional<PredSig> parsePredSig(std::string_view Text);

/// Renders the analysis result as a table of calling / success patterns.
std::string formatAnalysis(const AnalysisResult &R,
                           const SymbolTable &Syms);

/// Renders inferred modes: for each calling pattern, one line per argument
/// with its input mode (++ ground, + nonvar, - free, ? unknown) and
/// success type.
std::string formatModes(const AnalysisResult &R, const SymbolTable &Syms);

/// The report both front ends print for one query of \p Program: the mode
/// report (\p Modes) or the pattern table, then the result domain's derived
/// facts (none for a result without a domain).
std::string formatReport(const AnalysisResult &R,
                         const CompiledProgram &Program, bool Modes);

/// Reachability report derived from the extension table: predicates of
/// \p Program that the analysis never called from the entry goal (dead
/// code with respect to that entry), and calls that can never succeed.
std::string formatReachability(const AnalysisResult &R,
                               const CompiledProgram &Program);

// undefinedPredicateMessage (the near-miss diagnostic the analyzers and
// the module linker share) moved to compiler/ModuleLink.h, included above.

} // namespace awam

#endif // AWAM_ANALYZER_ANALYZER_H
