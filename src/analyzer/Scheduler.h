//===- analyzer/Scheduler.h - Dependency-driven worklist driver -*- C++ -*-===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The worklist fixpoint driver. Where the paper's naive loop (and our
/// DriverKind::Naive) restarts the entry goal and re-explores every
/// reachable activation each iteration, this scheduler owns an explicit
/// reverse-dependency graph over extension-table entries and re-runs only
/// the activations whose recorded table reads changed — semi-naive
/// evaluation in the style of generic Prolog abstract-interpretation
/// fixpoint engines (Le Charlier / Van Hentenryck).
///
/// The scheduler is the machine's DependencySink: every memo read is
/// recorded as an edge (Reader, RunSeq, VersionSeen) on the dependency's
/// reader list, and every summary change scans that list, re-enqueueing
/// readers whose recorded version went stale. Edges are invalidated
/// lazily: an edge whose RunSeq no longer matches its reader's current
/// run sequence belongs to a superseded run of the reader (which re-reads
/// and re-records everything when it re-runs) and is retired on sight.
///
/// Scheduling order deliberately mirrors the naive driver so both compute
/// not just the same least fixpoint of the summaries but the *identical
/// table* (the same set of calling patterns — chaotic iteration makes the
/// summaries order-insensitive, but which intermediate calling patterns
/// arise is order-sensitive):
///
///  * runs are grouped into sweeps, the worklist analogue of the naive
///    iterations, and drained in creation order (ETEntry::Idx) within a
///    sweep — the naive DFS's first-call order;
///  * a call to an entry with a pending run in the current sweep
///    re-explores it inline at the call site (shouldReexplore), exactly
///    where the naive DFS would, so nested update visibility matches;
///  * a reader invalidated "behind the cursor" (its sweep position is at
///    or before the change, or it already ran this sweep) is deferred to
///    the next sweep, matching the naive driver, which only re-reads on
///    the next restart of the entry goal.
///
/// Invariants:
///  * an activation runs at most once per sweep;
///  * every run of an activation bumps its RunSeq, retiring all edges its
///    previous run recorded;
///  * an edge's VersionSeen equals the dependency's SuccessVersion at
///    read time; a mismatch at change time means the reader consumed a
///    summary that has since grown and must re-run;
///  * an entry is enqueued for at most one sweep at a time (the earliest).
///
/// The queue/edge state machine lives in SchedulerCore, a plain value
/// type keyed on ETEntry::Idx, and WorklistScheduler's one drain loop
/// drives it. Given a bank of recorded traces, the loop first tries to
/// replay each popped activation (analyzer/Incremental.h), validating the
/// replay against a copy-on-write Overlay of the core, and executes it
/// only when that fails; an executing run asks for each inline
/// exploration's frame the same way (replayFrame). Every behavioural
/// decision (inline re-exploration, dirty targeting, edge retirement) is
/// a core method, so replayed and executed runs share one definition of
/// the schedule. The loop's one caller is AnalysisStore::query
/// (analyzer/Store.h): every worklist analysis is a store query. The core
/// lives and dies with its drain: no store reads its edges, since the
/// store invalidates roots by their projections (the entries their drains
/// reached), not by dependency.
///
//===----------------------------------------------------------------------===//

#ifndef AWAM_ANALYZER_SCHEDULER_H
#define AWAM_ANALYZER_SCHEDULER_H

#include "analyzer/AbstractMachine.h"
#include "analyzer/RunJournal.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

namespace awam {

class TraceReplay;

/// The worklist state machine: per-entry scheduling state, the reverse
/// dependency edges, and the ready heap, with one method per transition.
class SchedulerCore {
public:
  struct Stats {
    uint64_t Sweeps = 0;       ///< sweeps executed (naive-iteration analogue)
    uint64_t Runs = 0;         ///< activations launched from the queue
    uint64_t EdgesRecorded = 0;///< dependency edges recorded
    uint64_t ReplayedRuns = 0; ///< runs satisfied by journal replay
    /// clause-list explorations replayed, by whole runs or by frames
    uint64_t ReplayedActivations = 0;
  };

  /// A ready-heap node: (sweep, entry Idx).
  using QNode = std::pair<uint64_t, int32_t>;

  /// Grows the per-entry side tables to cover \p N entries.
  void ensure(size_t N);

  /// Schedules entry \p Idx to run in \p Sweep (keeps the earliest if
  /// already queued).
  void enqueue(int32_t Idx, uint64_t Sweep);

  /// Pops the next live ready node in (sweep, Idx) order, skipping nodes
  /// retired by lazy deletion (consumed inline or re-queued). The entry
  /// stays marked queued — the run's beginActivation consumes it.
  std::optional<QNode> popLive();

  /// True when a call to explored entry \p Idx must re-explore it inline:
  /// a run is pending for the current sweep, which is where the naive
  /// driver's DFS would re-explore the entry this iteration. A run queued
  /// for a later sweep stays queued — the naive driver would answer this
  /// call from the memo too.
  bool shouldReexplore(int32_t Idx) const {
    return static_cast<size_t>(Idx) < InQueue.size() && InQueue[Idx] &&
           QueuedSweep[Idx] <= CurSweep;
  }

  /// Entry \p Idx's clauses are about to be (re)explored: consumes any
  /// pending queued run and supersedes the previous run's recorded reads.
  void beginActivation(int32_t Idx);

  /// Entry \p Reader consumed \p Dep's summary, observing \p VersionSeen.
  void noteRead(int32_t Reader, int32_t Dep, uint32_t VersionSeen);

  /// Entry \p Idx's summary changed; \p SuccessVersion is its new (already
  /// bumped) version. Re-enqueues readers whose recorded version went
  /// stale, targeting the current sweep only for readers the naive DFS
  /// would still reach after the update.
  void noteChanged(int32_t Idx, uint32_t SuccessVersion);

  uint64_t currentSweep() const { return CurSweep; }
  void setCurrentSweep(uint64_t S) { CurSweep = S; }

  const Stats &stats() const { return S; }
  Stats &statsMut() { return S; }

private:
  /// One recorded memo read of a dependency's summary.
  struct Edge {
    int32_t Reader;      ///< reading entry (ETEntry::Idx)
    uint32_t ReaderRun;  ///< reader's RunSeq when the edge was recorded
    uint32_t VersionSeen;///< dependency's SuccessVersion at read time
  };

  // Per-entry state, indexed by ETEntry::Idx.
  std::vector<std::vector<Edge>> Readers; ///< reverse-dependency edges
  std::vector<uint32_t> RunSeq;           ///< bumped per run (edge validity)
  std::vector<uint64_t> QueuedSweep;      ///< target sweep while InQueue
  std::vector<char> InQueue;
  std::vector<uint64_t> LastRunSweep;     ///< sweep of the last run (0 = never)

  /// Min-heap on (sweep, Idx) with lazy deletion.
  std::priority_queue<QNode, std::vector<QNode>, std::greater<>> Heap;

  uint64_t CurSweep = 1;
  Stats S;

public:
  /// A sparse copy-on-write view of a core: behaves like a private copy
  /// for the transitions a replay simulation performs, at cost
  /// proportional to the entries the simulation touches instead of the
  /// size of the base core. A true copy is O(edges), and a replaying
  /// drain simulates once per replayed trace while the base accumulates
  /// every committed trace's edges — copying made warm replay quadratic
  /// in program size. The divergences from a true copy are limited to
  /// bookkeeping a simulation cannot observe: consumed base edges are
  /// skipped by the same liveness checks that would have retired them
  /// (re-processing one only re-issues an enqueue that keep-earliest
  /// already absorbs), duplicate-edge collapse may differ (multiplicity
  /// never changes an answer), there is no heap (simulations never pop),
  /// and stats are not kept (a simulation has no use for them).
  /// shouldReexplore — the only output a simulation reads — matches a
  /// true copy exactly.
  ///
  /// One overlay serves every simulation of a drain: its scratch is flat
  /// and epoch-stamped (indexed by entry Idx, valid only while stamped
  /// with the current simulation), so reset() forgets the previous
  /// simulation in O(1) and nothing is allocated per simulation once the
  /// vectors have grown.
  class Overlay {
  public:
    explicit Overlay(const SchedulerCore &Base) : Base(Base) {}

    /// Starts a simulation over the base's current state.
    void reset();

    bool shouldReexplore(int32_t Idx) const {
      if (const EntryState *E = touched(Idx))
        return E->InQueue && E->QueuedSweep <= Base.CurSweep;
      return Base.shouldReexplore(Idx);
    }

    void beginActivation(int32_t Idx);
    void noteRead(int32_t Reader, int32_t Dep, uint32_t VersionSeen);
    void noteChanged(int32_t Idx, uint32_t SuccessVersion);

  private:
    /// The queue/run state of one touched entry, materialized from the
    /// base on first touch, plus the newest edge this simulation recorded
    /// on it as a dependency.
    struct EntryState {
      uint32_t Stamp = 0; ///< the simulation that touched it
      bool InQueue = false;
      uint32_t RunSeq = 0;
      uint64_t QueuedSweep = 0;
      uint64_t LastRunSweep = 0;
      int32_t EdgeHead = -1; ///< into Added; -1 = none
    };
    /// An edge this simulation recorded, chained per dependency (newest
    /// first). Base edge lists are never copied or written; noteChanged
    /// scans base + added.
    struct AddedEdge {
      Edge E;
      int32_t Next = -1;
    };

    const EntryState *touched(int32_t Idx) const {
      return static_cast<size_t>(Idx) < States.size() &&
                     States[Idx].Stamp == Epoch
                 ? &States[Idx]
                 : nullptr;
    }
    EntryState &touch(int32_t Idx);
    uint32_t runSeq(int32_t Idx) const;
    uint64_t lastRunSweep(int32_t Idx) const;
    void enqueue(int32_t Idx, uint64_t Sweep);

    const SchedulerCore &Base;
    std::vector<EntryState> States; ///< by entry Idx
    std::vector<AddedEdge> Added;
    uint32_t Epoch = 0;
  };
};

/// Semi-naive worklist driver over the extension table (DriverKind::
/// Worklist). One instance drives one analysis run to its fixpoint.
class WorklistScheduler final : public DependencySink {
public:
  using Stats = SchedulerCore::Stats;

  enum class Status {
    Converged, ///< worklist drained: least fixpoint reached
    BudgetHit, ///< sweep budget exhausted; table is a sound partial result
    Error,     ///< the machine reported an error (message on the machine)
  };

  /// \p Bank, when non-null, holds recorded traces the drain replays
  /// wherever they validate (analyzer/Incremental.h states what a bank may
  /// hold); it must outlive the scheduler. Without one every popped
  /// activation executes.
  WorklistScheduler(ExtensionTable &Table, AbstractMachine &Machine,
                    const TraceBank *Bank = nullptr);
  ~WorklistScheduler() override;

  /// Drains the worklist starting from \p Root's activation, running at
  /// most \p MaxSweeps sweeps. Installs itself as the machine's
  /// dependency sink for the duration.
  Status run(ETEntry &Root, int MaxSweeps);

  const Stats &stats() const { return Core.stats(); }

  // --- DependencySink (called by the machine during activation runs) ---
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
  bool replayFrame(ETEntry &E, bool Created) override;

private:
  ExtensionTable &Table;
  AbstractMachine &Machine;
  SchedulerCore Core;
  /// The optional replay step (non-null when constructed with a bank).
  std::unique_ptr<TraceReplay> Replay;
};

} // namespace awam

#endif // AWAM_ANALYZER_SCHEDULER_H
