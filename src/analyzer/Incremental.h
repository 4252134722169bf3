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
///  1. Trace lookup. Banked traces are grouped by kind (run or frame, see
///     analyzer/RunJournal.h) and (root predicate, calling pattern id) and
///     consumed FIFO per group, mirroring the order in which runs (or
///     explorations) with equal roots committed.
///  2. Validation. The trace is simulated against the live table plus a
///     copy-on-write overlay of the live SchedulerCore, without writing
///     anything. Every observable input the recorded execution consumed
///     must match what execution would see now: the root's pre-run
///     summary; each callee's created-vs-found status; each memo-vs-explore
///     decision (answered by the overlay exactly as the machine's
///     shouldReexplore query would be); each memo'd or pre-exploration
///     summary *value*; and the cumulative step budget. The bank and the
///     drain's table share the store's interner, so every pattern check is
///     an id comparison and every lookup an exact id-keyed probe.
///     Validation emits an apply plan with all indices resolved.
///  3. Apply or execute. A validated plan is applied — entry creations,
///     beginActivation / noteRead / noteChanged transitions, summary
///     growth — and the recorded step/activation cost charged to the
///     machine, which is observationally identical to having executed the
///     run (the machine is deterministic between table interactions). The
///     trace carries over into the machine's attached journal for the next
///     query. An invalid trace falls back to executing the activation on
///     the machine, which records a fresh trace instead.
///  4. Frames. An executing run replays too: when it is about to explore a
///     callee inline, AbstractMachine::doCall asks its DependencySink, and
///     the next *frame* trace for that (predicate, calling pattern) goes
///     through steps 2 and 3 from the live state at the call — the frame's
///     behaviour depends only on its calling pattern, its clause code and
///     the table answers it reads, which is what validation checks. Its
///     ops, behind the Enter the call would have recorded, are spliced
///     into the open journal run, and the machine finishes the call as a
///     frame return does: calling-pattern cells on the heap, the caller's
///     read of the summary noted, the summary applied.
///
/// Frame traces replay only at inline explorations and run traces only at
/// queue pops, because their step counts differ by the Halt: a popped
/// run's Steps counts the Halt its root executes on success, and a
/// frame's, which returns to a caller, does not. With one index shared by
/// both kinds, the service script's round on log10 under pos (query main
/// and log10/1, edit log10/1, re-query main) replays log10's banked root
/// run as main's exploration of it, and the report reads 334 abstract
/// instructions instead of 333.
///
/// A bank holds no code that changed: the store re-keys every bank to the
/// current module's predicate ids when it invalidates or imports, and
/// replaces each trace that executed an *edited* predicate's clauses (as
/// its root or by inline exploration) with its maximal frames that did
/// not, and drops what names a predicate that no longer resolves. Memo
/// reads of edited predicates stay — validation compares the summary
/// value, which is what the recorded execution consumed.
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

#include <cstdint>
#include <vector>

namespace awam {

struct CompiledProgram;

/// The predicates whose *clause code* differs between \p Old and \p New,
/// by name/arity: changed bodies, changed clause counts, additions, and
/// removals. Both modules should share one SymbolTable; with distinct
/// tables the comparison is meaningless (Symbols and hence patterns are
/// incomparable), so every predicate of both programs is reported and the
/// AnalysisStore invalidates everything. Used by the store's invalidation
/// on a recompiled program: a root dies when its projection names one of
/// these predicates.
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
  /// \p Table's module ids and interner ids and run no edited code (see
  /// the file comment); all four must outlive the replay.
  TraceReplay(const TraceBank &Bank, ExtensionTable &Table,
              SchedulerCore &Core, AbstractMachine &Machine);

  /// Validates the next banked run trace for \p Root's key and applies it
  /// at a queue pop; false means the caller must execute the activation
  /// on the machine.
  bool tryReplay(ETEntry &Root);

  /// Validates the next banked frame trace for \p Root's key and applies
  /// it in place of the inline exploration of \p Root an executing run is
  /// about to start (\p Created: its call created the entry); false means
  /// the machine explores the clauses itself.
  bool tryReplayFrame(ETEntry &Root, bool Created);

private:
  /// One validated transition of an apply plan.
  struct ReplayOp {
    enum Kind : uint8_t {
      Begin,  ///< A = entry idx: beginActivation + EverExplored
      Create, ///< A = pid, B = expected idx, Pat = calling pattern
      Read,   ///< A = reader, B = dep (apply reads the live version)
      Grow,   ///< A = entry idx, Pat = new summary
    } K = Begin;
    int32_t A = -1;
    int32_t B = -1;
    PatternId Pat = kInvalidPatternId;
  };

  /// A simulation's view of one entry it touched: the live table's state
  /// with the trace's effects so far applied.
  struct SimEntry {
    uint32_t Stamp = 0; ///< the simulation that touched it
    PatternId Success = kInvalidPatternId;
    uint32_t Version = 0;
    bool Explored = false;
  };

  /// An entry a simulation created: its Idx, valid while Stamp is the
  /// current simulation's.
  struct SimCreated {
    uint32_t Stamp = 0;
    int32_t Idx = -1;
  };

  /// tryReplay (\p Frame false) or tryReplayFrame.
  bool replay(ETEntry &Root, bool Frame, bool Created);

  /// Consumes the next banked trace of kind \p Frame for \p Root's key;
  /// the trace's bank index, or -1 when the key has none left.
  int64_t takeTrace(const ETEntry &Root, bool Frame);

  /// Pass 1 of a replay: simulates \p T against the live table and the
  /// overlay of the live core, writing the apply plan into Plan. Writes
  /// no shared state. Returns false when execution would diverge from the
  /// trace (the plan is then unusable).
  bool simulate(const ETEntry &Root, const RunTrace &T);

  /// Pass 2: applies Plan to the live table and core, charges the cost of
  /// bank trace \p TraceIdx (whose cursor is already consumed) and carries
  /// it into the machine's journal — a frame behind an Enter recording
  /// \p Created.
  void applyPlan(size_t TraceIdx, bool Created);

  /// Starts a simulation: every SimEntry and SimCreated slot goes stale.
  void newEpoch();
  /// Entry \p Idx as the current simulation sees it.
  SimEntry &sim(int32_t Idx);
  /// The entry for (\p Pid, \p Call) in the live table or created by
  /// the current simulation, or -1.
  int32_t findSim(int32_t Pid, PatternId Call) const;

  const TraceBank &Bank;
  ExtensionTable &Table;
  SchedulerCore &Core;
  AbstractMachine &Machine;

  // Trace lookup: the traces sharing one kind and (root pid, calling
  // pattern id) form a FIFO chain through NextInGroup, in bank order.
  detail::FlatMap64 GroupOf;         ///< root key -> group
  std::vector<uint32_t> GroupCursor; ///< group -> next unconsumed trace
  std::vector<uint32_t> NextInGroup; ///< bank index -> next of its group

  // Simulation scratch, reused by every simulation of the drain: flat and
  // stamped, so starting a simulation costs O(1), and one root trace
  // creating thousands of entries is indexed by key, not scanned.
  SchedulerCore::Overlay Sim;
  std::vector<SimEntry> SimEntries;    ///< by entry Idx
  detail::FlatMap64 CreatedSlot;       ///< (pid, call id) -> slot
  std::vector<SimCreated> CreatedSlots; ///< by slot
  std::vector<int32_t> Stack;
  std::vector<ReplayOp> Plan;
  uint32_t Epoch = 0;
  size_t LiveSize = 0;   ///< table size when the simulation started
  int32_t NumCreated = 0; ///< entries the simulation created so far
};

} // namespace awam

#endif // AWAM_ANALYZER_INCREMENTAL_H
