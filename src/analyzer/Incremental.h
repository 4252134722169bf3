//===- analyzer/Incremental.h - Validated journal replay --------*- C++ -*-===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Validated journal replay: the optional step WorklistScheduler's drain
/// loop takes before executing a popped activation. Every AnalysisStore
/// query records one RunTrace per activation run (analyzer/RunJournal.h);
/// a later query of the store — a new entry, or the re-query after an
/// edit (AnalysisSession::reanalyze) — drains over a fresh table with the
/// store's pooled traces as its *bank*, and each popped activation first
/// tries to *replay* a banked trace instead of executing clause code:
///
///  1. Trace lookup. Banked traces are grouped by (root predicate, calling
///     pattern) and consumed FIFO per group, mirroring the order in which
///     runs with equal roots committed.
///  2. Validation. The trace is simulated against the live table plus a
///     copy-on-write overlay of the live SchedulerCore, without writing
///     anything. Every observable input the recorded execution consumed
///     must match what execution would see now: the root's pre-run
///     summary; each callee's created-vs-found status; each memo-vs-explore
///     decision (answered by the overlay exactly as the machine's
///     shouldReexplore query would be); each memo'd or pre-exploration
///     summary *value*; and the cumulative step budget. Validation emits an
///     apply plan with all indices resolved.
///  3. Apply or execute. A validated plan is applied — entry creations,
///     beginActivation / noteRead / noteChanged transitions, summary
///     growth — and the recorded step/activation cost charged to the
///     machine, which is observationally identical to having executed the
///     run (the machine is deterministic between table interactions). The
///     trace carries over into the machine's attached journal for the next
///     query. An invalid trace falls back to executing the activation on
///     the machine, which records a fresh trace instead.
///
/// A bank holds no code that changed: the store re-keys every bank to the
/// current module's predicate ids when it invalidates or imports, and
/// drops each trace that executed an *edited* predicate's clauses (as its
/// root or by inline exploration) or names a predicate that no longer
/// resolves. Memo reads of edited predicates stay — validation compares
/// the summary value, which is what the recorded execution consumed.
///
/// Byte-identity with a from-scratch analyze() follows by induction over
/// the drain: with equal core and table states both drains pop the same
/// activation; an executed run behaves identically on equal state, and a
/// replayed run applies exactly the effects execution would have produced
/// (which is what validation established) — so the next states are equal
/// too, and every quantity the report prints (entry creation order,
/// summaries, sweeps, runs, instructions) matches. Only probe and interner
/// statistics may drift (replay probes the table less), and those are not
/// part of the report.
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
/// incomparable), so every predicate of both programs is reported and the
/// AnalysisStore invalidates everything. Used by the store's cone
/// invalidation on a recompiled program.
std::vector<PredSig> diffPrograms(const CompiledProgram &Old,
                                  const CompiledProgram &New);

/// The replay step of one drain: groups a bank of recorded traces by root
/// key and satisfies popped activations from it wherever validation holds.
/// WorklistScheduler owns one when it is given a bank.
class TraceReplay {
public:
  /// Replays \p Bank into the drain over \p Table and \p Core, charging
  /// replayed cost to \p Machine and carrying each replayed trace into the
  /// machine's attached journal. Every trace must be error-free, use
  /// \p Table's module ids and run no edited code (see the file comment);
  /// all four must outlive the replay.
  TraceReplay(const TraceBank &Bank, ExtensionTable &Table,
              SchedulerCore &Core, AbstractMachine &Machine);

  /// Validates the next banked trace for \p Root's key and applies it;
  /// false means the caller must execute the activation on the machine.
  bool tryReplay(ETEntry &Root);

private:
  /// Traces sharing one (root pid, calling pattern), consumed in FIFO
  /// order. Call points into the first trace (traces are shared-owned by
  /// the bank and outlive the replay).
  struct RootGroup {
    int32_t Pid = -1;
    const Pattern *Call = nullptr;
    std::vector<size_t> TraceIdx;
    size_t Cursor = 0;
  };

  /// Consumes the next banked trace for \p Root's key, if any.
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

  const TraceBank &Bank;
  ExtensionTable &Table;
  SchedulerCore &Core;
  AbstractMachine &Machine;
  std::unordered_map<uint64_t, std::vector<RootGroup>> Groups;
};

} // namespace awam

#endif // AWAM_ANALYZER_INCREMENTAL_H
