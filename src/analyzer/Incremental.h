//===- analyzer/Incremental.h - Incremental re-analysis driver --*- C++ -*-===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The incremental worklist driver behind AnalysisSession::reanalyze().
///
/// Strategy: *validated journal replay*. A from-scratch analysis under
/// AnalyzerOptions::Incremental records one RunTrace per activation run
/// (analyzer/RunJournal.h). reanalyze() re-drains the worklist over a
/// fresh table in exactly WorklistScheduler::run's order, but each popped
/// activation first tries to *replay* a matching recorded trace instead of
/// executing clause code:
///
///  1. Trace lookup. Traces are grouped by (root predicate, calling
///     pattern) — predicates matched by name/arity so a recompiled module
///     with shifted PredIds still resolves — and consumed FIFO per group,
///     mirroring the order in which runs with equal roots committed.
///  2. Validation. The trace is simulated against the live table plus a
///     clone of the live SchedulerCore, without writing anything. Every
///     observable input the recorded execution consumed must match what
///     execution would see now: the root's pre-run summary; each callee's
///     created-vs-found status; each memo-vs-explore decision (answered by
///     the core clone exactly as the machine's shouldReexplore query would
///     be); each memo'd or pre-exploration summary *value*; and the
///     cumulative step budget. Traces that executed an *edited*
///     predicate's clauses (as root or by inline exploration) are invalid
///     up front; memo reads of edited predicates are fine — the summary
///     value is what matters. Validation emits an apply plan with all
///     indices resolved.
///  3. Apply or execute. A validated plan is applied — entry creations,
///     beginActivation / noteRead / noteChanged transitions, summary
///     growth — and the recorded step/activation cost charged to the
///     machine, which is observationally identical to having executed the
///     run (the machine is deterministic between table interactions). An
///     invalid trace falls back to executing the activation on the
///     machine, which also records a fresh trace for the next reanalyze in
///     the chain.
///
/// Byte-identity with a from-scratch analyze() of the edited program
/// follows by induction over the drain: with equal core and table states
/// both drains pop the same activation; an executed run behaves
/// identically on equal state, and a replayed run applies exactly the
/// effects execution would have produced (which is what validation
/// established) — so the next states are equal too, and every quantity the
/// report prints (entry creation order, summaries, sweeps, runs,
/// instructions) matches. Only probe and interner statistics may drift
/// (replay probes the table less), and those are not part of the report.
///
/// The previous run's dependency edges still earn their keep as the
/// *invalidation cone*: ReanalyzeStats::ConeEntries is the reverse
/// dependency closure of the edited predicates' entries over the previous
/// SchedulerCore — the entries whose recorded reads could transitively
/// reach the edit. Validation is value-level and therefore finer: a cone
/// member whose inputs did not actually change still replays.
///
//===----------------------------------------------------------------------===//

#ifndef AWAM_ANALYZER_INCREMENTAL_H
#define AWAM_ANALYZER_INCREMENTAL_H

#include "analyzer/ExtensionTable.h"
#include "analyzer/RunJournal.h"
#include "analyzer/Scheduler.h"

#include <unordered_map>
#include <vector>

namespace awam {

struct CompiledProgram;

/// The predicates whose *clause code* differs between \p Old and \p New,
/// by name/arity: changed bodies, changed clause counts, additions, and
/// removals. Both modules should share one SymbolTable; with distinct
/// tables the comparison is meaningless (Symbols and hence patterns are
/// incomparable), so every predicate of both programs is reported — a
/// re-drain then (correctly) replays nothing and a persistent store
/// invalidates everything. Used by AnalysisSession::reanalyze and the
/// AnalysisStore's cone invalidation.
std::vector<PredSig> diffPrograms(const CompiledProgram &Old,
                                  const CompiledProgram &New);

/// Worklist driver that satisfies activations from a previous run's
/// journal where valid and executes the rest. One instance drives one
/// reanalyze() to its fixpoint.
class IncrementalScheduler final : public DependencySink {
public:
  using Status = WorklistScheduler::Status;

  /// How much of the drain was replayed vs re-executed (the bench and CI
  /// gate metrics; byte-identity of the result itself is the contract).
  struct ReanalyzeStats {
    uint64_t PrevEntries = 0; ///< previous run's table size
    uint64_t ConeEntries = 0; ///< entries in the reverse-dependency cone
    uint64_t ExecutedRuns = 0;  ///< queue pops that ran the machine
    uint64_t ReplayedRuns = 0;  ///< queue pops satisfied by trace replay
    uint64_t ExecutedActivations = 0; ///< clause-list explorations executed
    uint64_t ReplayedActivations = 0; ///< clause-list explorations replayed
  };

  /// \p Edited names the predicates whose clause code changed between
  /// \p Prev's module and \p Module (matched by name/arity; a deleted
  /// predicate simply never resolves). \p Out, when non-null, receives the
  /// new run's traces: replays carry their trace over (remapped to
  /// \p Module's ids), executed runs record fresh ones via the machine's
  /// attached journal.
  IncrementalScheduler(ExtensionTable &Table, AbstractMachine &Machine,
                       const CodeModule &Module, const RunJournal &Prev,
                       const std::vector<PredSig> &Edited, RunJournal *Out,
                       uint64_t MaxSteps);
  ~IncrementalScheduler() override;

  /// Drains the worklist from \p Root exactly like WorklistScheduler::run.
  Status run(ETEntry &Root, int MaxSweeps);

  const SchedulerCore::Stats &stats() const { return Core.stats(); }
  const SchedulerCore &core() const { return Core; }
  ReanalyzeStats &reanalyzeStats() { return RStats; }
  const ReanalyzeStats &reanalyzeStats() const { return RStats; }

  // --- DependencySink (live fallback runs on the machine) ---
  bool shouldReexplore(const ETEntry &E) override {
    return Core.shouldReexplore(E.Idx);
  }
  void beginActivation(const ETEntry &E) override {
    Core.beginActivation(E.Idx);
  }
  void noteRead(const ETEntry &Reader, const ETEntry &Dep,
                uint32_t VersionSeen) override {
    Core.noteRead(Reader.Idx, Dep.Idx, VersionSeen);
  }
  void noteChanged(const ETEntry &E) override {
    Core.noteChanged(E.Idx, E.SuccessVersion);
  }

private:
  /// Traces sharing one (root pid, calling pattern), consumed in FIFO
  /// order. Call points into the first trace (traces are shared-owned by
  /// the journal and outlive the scheduler).
  struct RootGroup {
    int32_t Pid = -1;
    const Pattern *Call = nullptr;
    std::vector<size_t> TraceIdx;
    size_t Cursor = 0;
  };

  int32_t resolvePid(int32_t OldPid) const {
    return static_cast<size_t>(OldPid) < PidMap.size() ? PidMap[OldPid] : -1;
  }

  /// Consumes the next recorded trace for \p Root's key, if any.
  const RunTrace *takeTrace(const ETEntry &Root, size_t &TraceIdxOut);

  struct ReplayOp;   ///< one validated transition of an apply plan
  struct ReplayPlan; ///< a validated replay, ready to apply

  /// Pass 1 of a replay: simulates \p T against the live table and a
  /// copy-on-write overlay of the live core, writing the apply plan into
  /// \p Out. Writes no shared state. Returns false when execution would
  /// diverge from the trace (the plan is then unusable).
  bool simulate(const ETEntry &Root, const RunTrace &T,
                ReplayPlan &Out) const;

  /// Pass 2: applies \p Plan to the live table and core and charges the
  /// recorded cost (the caller has already consumed the trace cursor).
  void applyPlan(const ReplayPlan &Plan);

  /// Validates the next trace for \p Root and applies it; false means the
  /// caller must execute the activation on the machine.
  bool tryReplay(ETEntry &Root);

  ExtensionTable &Table;
  AbstractMachine &Machine;
  const CodeModule &Module;
  const RunJournal &Prev;
  RunJournal *OutJournal;
  uint64_t MaxSteps;
  SchedulerCore Core;
  ReanalyzeStats RStats;
  std::vector<int32_t> PidMap; ///< prev-module pid -> new pid (-1 = gone)
  std::vector<char> EditedNew; ///< new pid -> clause code changed?
  std::vector<char> Usable;    ///< per trace: structurally replayable
  std::unordered_map<uint64_t, std::vector<RootGroup>> Groups;
};

} // namespace awam

#endif // AWAM_ANALYZER_INCREMENTAL_H
