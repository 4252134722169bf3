//===- analyzer/AbstractMachine.h - The abstract WAM ------------*- C++ -*-===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's contribution: the WAM instruction set reinterpreted over the
/// abstract domain (Section 4.2) with the extension-table control scheme
/// folded into `call` and `proceed` (Section 5).
///
/// The machine executes the *same clause code* the compiler produced for
/// the concrete machine. Differences from the concrete machine:
///
///  * get/unify instructions use abstract unification (absUnify), which
///    instantiates abstract cells against concrete structure
///    (ComplexTermInst) and proceeds in read mode, as in Figure 4;
///  * `call` abstracts the argument registers into a calling pattern,
///    consults the extension table, and either returns a memoized success
///    pattern or explores the callee's clauses one by one (indexing blocks
///    are bypassed — clause selection lives in call/proceed, as the paper
///    prescribes);
///  * `proceed` performs updateET followed by an artificial failure;
///    exhausting a predicate's clauses performs lookupET;
///  * `execute` is reverted to call-followed-by-proceed;
///  * cut is ignored (a sound over-approximation);
///  * builtins narrow their arguments abstractly (e.g. `is/2` makes the
///    expression ground and the result an integer).
///
//===----------------------------------------------------------------------===//

#ifndef AWAM_ANALYZER_ABSTRACTMACHINE_H
#define AWAM_ANALYZER_ABSTRACTMACHINE_H

#include "analyzer/Domain.h"
#include "analyzer/ExtensionTable.h"
#include "compiler/ProgramCompiler.h"
#include "wam/Store.h"

#include <memory>
#include <string>
#include <vector>

namespace awam {

// Domain.h is pulled in for DomainRunState's definition: the machine owns
// one by unique_ptr, so every TU that destroys a machine needs the
// complete type.
class RunJournal;

/// Outcome of one abstract-interpretation iteration.
enum class AbsRunStatus {
  Completed, ///< ran to completion (top goal succeeded or finitely failed)
  Error,     ///< machine error (budget exceeded, unsupported instruction)
};

/// Resource limits for the abstract machine.
struct AbsMachineOptions {
  int DepthLimit = kDefaultDepthLimit; ///< term-depth restriction k
  uint64_t MaxSteps = 200'000'000;     ///< total instruction budget
  /// Abstract domain driving abstraction/transfer on the interned fast
  /// path; null = the default (modes) domain. Non-default domains require
  /// an interned table (AnalysisSession enforces this).
  const Domain *Dom = nullptr;
  /// When non-null, control events (call / lookup / updateET / return) are
  /// appended as human-readable lines — used to regenerate the paper's
  /// Figure 5 annotations.
  std::vector<std::string> *TraceLog = nullptr;
};

/// Observer of the machine's extension-table traffic — the worklist
/// scheduler's dependency feed (analyzer/Scheduler.h implements it).
///
/// Installing a sink (setDependencySink) switches the machine's call rule
/// from the naive per-iteration protocol (explore each entry once per
/// iteration, as flagged by ETEntry::Explored) to the activation protocol:
/// an entry whose clauses were ever explored answers calls from the memo
/// unless the sink asks for an inline re-exploration, and every memo read
/// is reported with the success version it observed.
class DependencySink {
public:
  virtual ~DependencySink() = default;

  /// Asked on a call to an already-explored \p E: return true to re-run
  /// its clauses inline (consuming any pending scheduled run), false to
  /// answer from the memo.
  virtual bool shouldReexplore(const ETEntry &E) = 0;

  /// \p E's clauses are about to be (re)explored — whether inline at a
  /// call site or as the activation the scheduler launched.
  virtual void beginActivation(const ETEntry &E) = 0;

  /// \p Reader consumed \p Dep's summarized success pattern, observing
  /// \p VersionSeen (== Dep.SuccessVersion at read time).
  virtual void noteRead(const ETEntry &Reader, const ETEntry &Dep,
                        uint32_t VersionSeen) = 0;

  /// \p E's success pattern just changed (SuccessVersion already bumped).
  virtual void noteChanged(const ETEntry &E) = 0;

  /// A call is about to explore \p E inline (\p Created: the call created
  /// it). Return true when the sink has applied that exploration's effects
  /// in place of executing it — journal replay of a frame trace
  /// (analyzer/Incremental.h) — and charged its cost to the machine; the
  /// machine then finishes the call as a frame return does. False: the
  /// machine explores the clauses itself.
  virtual bool replayFrame(ETEntry &E, bool Created) = 0;
};

/// The activation executor: extension-table-based abstract interpretation
/// over the compiled code. The ExtensionTable is owned by the caller (the
/// AnalysisSession) and persists across runs. Two driving protocols:
///
///  * runIteration — the paper's naive loop body: restart the entry goal,
///    re-exploring every reachable activation once;
///  * runActivation — replay exactly one (PredId, PatternId) activation
///    for the worklist scheduler, reporting table reads and success
///    changes through the installed DependencySink.
class AbstractMachine {
public:
  AbstractMachine(const CompiledProgram &Program, ExtensionTable &Table,
                  AbsMachineOptions Options = {});

  /// Installs (or clears) the scheduler's dependency feed. A non-null sink
  /// switches doCall to the activation protocol; runIteration requires the
  /// sink to be null.
  void setDependencySink(DependencySink *S) { Deps = S; }

  /// Attaches (or clears) a trace journal: every runActivation then
  /// records a replayable RunTrace of its table interactions (the journal
  /// replay feed; see analyzer/RunJournal.h). Activation protocol only —
  /// runIteration ignores the journal.
  void setRunJournal(RunJournal *J) { Journal = J; }

  /// The attached journal, where a replayed run's trace carries over too.
  RunJournal *runJournal() const { return Journal; }

  /// Runs one naive iteration from entry predicate \p PredId with calling
  /// pattern \p Entry. Returns Completed normally; table growth is
  /// reported via changedSinceLastRun().
  AbsRunStatus runIteration(int32_t PredId, const Pattern &Entry);

  /// Replays the single activation \p Root: re-explores its clauses
  /// against the current table, answering nested calls from the memo
  /// (or exploring them inline when the sink requests it / the callee is
  /// new). Requires an installed DependencySink.
  AbsRunStatus runActivation(ETEntry &Root);

  /// True if the last run added entries or grew a success pattern.
  bool changedSinceLastRun() const { return Changed; }

  /// Abstract WAM instructions executed, accumulated over all runs
  /// (the paper's "Exec" column in Table 1).
  uint64_t stepsExecuted() const { return Steps; }

  /// The instruction budget (AbsMachineOptions::MaxSteps).
  uint64_t maxSteps() const { return Options.MaxSteps; }

  /// Activation replays: how many times some entry's clause list was
  /// (re)explored, accumulated over all runs. The driver-comparison
  /// metric — the worklist scheduler exists to shrink this number.
  uint64_t activationsExplored() const { return Activations; }

  /// Adds the recorded cost of a replayed activation run or frame to this
  /// machine's counters (journal replay, see analyzer/Incremental.h), so
  /// counters match an executed drain.
  void charge(uint64_t StepsRun, uint64_t ActivationsRun) {
    Steps += StepsRun;
    Activations += ActivationsRun;
  }

  const std::string &errorMessage() const { return ErrorMsg; }

private:
  /// One predicate exploration in progress (replaces concrete choice
  /// points: clause alternatives are driven by call/proceed).
  struct AnalysisFrame {
    ETEntry *Entry = nullptr;
    int32_t PredId = -1;
    size_t ClauseIdx = 0;
    std::vector<Cell> CallerArgs;    // caller's argument cells
    std::vector<int64_t> CalleeArgs; // instantiated calling-pattern cells
    int32_t SavedCP = 0;
    int64_t SavedE = -1;
    int64_t TrailMark = 0;
    int64_t HeapMark = 0;
    size_t EnvMark = 0;
    /// Domain run-state height at frame setup: enterClause rewinds the
    /// domain state here in lockstep with the trail/heap unwind.
    size_t DomMark = 0;
    /// Steps when the frame was set up: its Exit records the difference.
    uint64_t StepsMark = 0;
  };

  struct EnvFrame {
    int64_t PrevE = -1;
    int32_t SavedCP = 0;
    std::vector<Cell> Y;
  };

  void resetRun();                   // clears store/registers/frames
  AbsRunStatus driveToCompletion();  // step() until halt or error
  bool step();                       // executes one instruction
  void doCall(int32_t PredId, int32_t ContinueAt);
  void enterClause();                // (re)start current frame's clause
  void clauseSucceeded();            // proceed: updateET + artificial fail
  void summaryGrew(ETEntry &Entry);  // version bump + sink notification
  void failCurrent();                // failure inside the current clause
  void returnFromFrame();            // clauses exhausted: lookupET
  void finishCall(const ETEntry &Callee, const std::vector<Cell> &Args,
                  int32_t ContinueAt); // read + apply the callee's summary
  bool runAbsBuiltin(int Id, int Arity);
  void machineError(std::string Message);

  Cell &ySlot(int I) { return Envs[E].Y[I]; }

  const CompiledProgram &Program;
  const CodeModule &Module;
  ExtensionTable &Table;
  /// Borrowed from the table; non-null enables the hash-consed fast path
  /// (id-keyed table lookups, memoized lub, pooled scratch buffers).
  PatternInterner *Interner;
  /// Non-null switches doCall to the activation protocol (worklist mode).
  DependencySink *Deps = nullptr;
  /// Non-null records a RunTrace per activation run (store queries).
  RunJournal *Journal = nullptr;
  AbsMachineOptions Options;
  /// The abstract domain (Options.Dom resolved; never null). Drives the
  /// interned path's abstraction, transfer and lattice hooks — the
  /// non-interned path keeps the default domain's inline code.
  const Domain *Dom = nullptr;
  /// Per-run mutable domain state (null for domains that need none);
  /// marked/rewound with the trail.
  std::unique_ptr<DomainRunState> DomState;

  Store St;
  std::vector<Cell> X;
  /// Pooled scratch for the fast path: argument snapshot, canonicalization
  /// targets, and instantiate working vectors. Reused across every call
  /// and proceed so the steady-state fixpoint loop allocates nothing.
  std::vector<Cell> ArgsBuf;
  CanonicalizeContext CanonCtx;
  Pattern CPatBuf;
  Pattern SPatBuf;
  std::vector<int64_t> CellOfBuf;
  std::vector<int64_t> RootsBuf;
  std::vector<int64_t> CalleeArgsBuf; ///< a replayed frame's pattern cells
  std::vector<EnvFrame> Envs;
  std::vector<AnalysisFrame> Frames;

  int32_t P = 0;
  int32_t CP = 0;
  int64_t E = -1;
  int64_t S = 0;
  bool WriteMode = false;
  bool Running = false;
  bool Changed = false;
  bool HasError = false;
  uint64_t Steps = 0;
  uint64_t Activations = 0;
  std::string ErrorMsg;
};

} // namespace awam

#endif // AWAM_ANALYZER_ABSTRACTMACHINE_H
