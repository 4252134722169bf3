//===- analyzer/Scheduler.cpp - Semi-naive worklist evaluation ------------===//

#include "analyzer/Scheduler.h"

#include "analyzer/Incremental.h"

#include <algorithm>
#include <cassert>

using namespace awam;

void SchedulerCore::ensure(size_t N) {
  if (Readers.size() >= N)
    return;
  Readers.resize(N);
  RunSeq.resize(N, 0);
  QueuedSweep.resize(N, 0);
  InQueue.resize(N, 0);
  LastRunSweep.resize(N, 0);
}

void SchedulerCore::enqueue(int32_t Idx, uint64_t Sweep) {
  ensure(static_cast<size_t>(Idx) + 1);
  if (InQueue[Idx] && QueuedSweep[Idx] <= Sweep)
    return; // already queued at least as early
  InQueue[Idx] = 1;
  QueuedSweep[Idx] = Sweep;
  Heap.emplace(Sweep, Idx);
}

std::optional<SchedulerCore::QNode> SchedulerCore::popLive() {
  while (!Heap.empty()) {
    QNode N = Heap.top();
    Heap.pop();
    if (InQueue[N.second] && QueuedSweep[N.second] == N.first)
      return N;
    // else: consumed inline or re-queued; lazy deletion
  }
  return std::nullopt;
}

void SchedulerCore::beginActivation(int32_t Idx) {
  ensure(static_cast<size_t>(Idx) + 1);
  InQueue[Idx] = 0; // any pending run is consumed by this one
  LastRunSweep[Idx] = CurSweep;
  // Supersede the previous run's reads: it is being redone from scratch,
  // so its recorded edges no longer describe a live read.
  ++RunSeq[Idx];
}

void SchedulerCore::noteRead(int32_t Reader, int32_t Dep,
                             uint32_t VersionSeen) {
  ensure(static_cast<size_t>(Dep) + 1);
  std::vector<Edge> &Vec = Readers[Dep];
  // A clause body often reads the same summary several times in a row
  // (one call per clause trial); collapse trivially repeated edges.
  if (!Vec.empty() && Vec.back().Reader == Reader &&
      Vec.back().ReaderRun == RunSeq[Reader] &&
      Vec.back().VersionSeen == VersionSeen)
    return;
  Vec.push_back({Reader, RunSeq[Reader], VersionSeen});
  ++S.EdgesRecorded;
}

void SchedulerCore::noteChanged(int32_t Idx, uint32_t SuccessVersion) {
  ensure(static_cast<size_t>(Idx) + 1);
  std::vector<Edge> &Vec = Readers[Idx];
  for (size_t I = 0; I < Vec.size();) {
    const Edge &Ed = Vec[I];
    if (RunSeq[Ed.Reader] != Ed.ReaderRun) {
      // Superseded: the reader re-ran since this edge was recorded.
      Vec[I] = Vec.back();
      Vec.pop_back();
      continue;
    }
    if (Ed.VersionSeen != SuccessVersion) {
      // Stale read. A reader positioned after the change that has not run
      // this sweep still gets its turn in the current sweep (the naive
      // DFS would reach it after the update); anything else waits for the
      // next sweep, like a naive restart.
      uint64_t Target =
          (LastRunSweep[Ed.Reader] == CurSweep || Ed.Reader <= Idx)
              ? CurSweep + 1
              : CurSweep;
      enqueue(Ed.Reader, Target);
      // The re-run re-reads and re-records; drop the consumed edge.
      Vec[I] = Vec.back();
      Vec.pop_back();
      continue;
    }
    ++I;
  }
}

void SchedulerCore::Overlay::reset() {
  Added.clear();
  if (++Epoch == 0) { // stamps wrapped: forget them for real
    States.assign(States.size(), EntryState());
    Epoch = 1;
  }
}

SchedulerCore::Overlay::EntryState &SchedulerCore::Overlay::touch(int32_t Idx) {
  if (static_cast<size_t>(Idx) >= States.size())
    States.resize(std::max(static_cast<size_t>(Idx) + 1, Base.InQueue.size()));
  EntryState &E = States[Idx];
  if (E.Stamp != Epoch) {
    bool Known = static_cast<size_t>(Idx) < Base.InQueue.size();
    E.Stamp = Epoch;
    E.InQueue = Known && Base.InQueue[Idx];
    E.RunSeq = Known ? Base.RunSeq[Idx] : 0;
    E.QueuedSweep = Known ? Base.QueuedSweep[Idx] : 0;
    E.LastRunSweep = Known ? Base.LastRunSweep[Idx] : 0;
    E.EdgeHead = -1;
  }
  return E;
}

uint32_t SchedulerCore::Overlay::runSeq(int32_t Idx) const {
  if (const EntryState *E = touched(Idx))
    return E->RunSeq;
  return static_cast<size_t>(Idx) < Base.RunSeq.size() ? Base.RunSeq[Idx] : 0;
}

uint64_t SchedulerCore::Overlay::lastRunSweep(int32_t Idx) const {
  if (const EntryState *E = touched(Idx))
    return E->LastRunSweep;
  return static_cast<size_t>(Idx) < Base.LastRunSweep.size()
             ? Base.LastRunSweep[Idx]
             : 0;
}

void SchedulerCore::Overlay::enqueue(int32_t Idx, uint64_t Sweep) {
  EntryState &E = touch(Idx);
  if (E.InQueue && E.QueuedSweep <= Sweep)
    return; // already queued at least as early
  E.InQueue = true;
  E.QueuedSweep = Sweep;
}

void SchedulerCore::Overlay::beginActivation(int32_t Idx) {
  EntryState &E = touch(Idx);
  E.InQueue = false;
  E.LastRunSweep = Base.CurSweep;
  ++E.RunSeq;
}

void SchedulerCore::Overlay::noteRead(int32_t Reader, int32_t Dep,
                                      uint32_t VersionSeen) {
  uint32_t Run = runSeq(Reader);
  EntryState &D = touch(Dep);
  if (D.EdgeHead >= 0) {
    const Edge &Last = Added[static_cast<size_t>(D.EdgeHead)].E;
    if (Last.Reader == Reader && Last.ReaderRun == Run &&
        Last.VersionSeen == VersionSeen)
      return; // collapse trivially repeated edges, as the real core does
  }
  Added.push_back({{Reader, Run, VersionSeen}, D.EdgeHead});
  D.EdgeHead = static_cast<int32_t>(Added.size() - 1);
}

void SchedulerCore::Overlay::noteChanged(int32_t Idx,
                                         uint32_t SuccessVersion) {
  // Re-enqueue stale readers exactly as SchedulerCore::noteChanged would,
  // over the base's edges plus the ones this simulation recorded. Base
  // edges are not erased when consumed: a superseded edge stays dead
  // under the RunSeq check, and a consumed stale edge can only re-issue
  // an enqueue the keep-earliest rule absorbs (its target sweep never
  // moves earlier between scans — LastRunSweep is monotone and the
  // Reader<=Idx term is fixed). Scan order does not matter either:
  // keep-earliest makes the resulting queue state the minimum target.
  auto Scan = [&](const Edge &Ed) {
    if (runSeq(Ed.Reader) != Ed.ReaderRun)
      return; // superseded
    if (Ed.VersionSeen == SuccessVersion)
      return;
    uint64_t Target =
        (lastRunSweep(Ed.Reader) == Base.CurSweep || Ed.Reader <= Idx)
            ? Base.CurSweep + 1
            : Base.CurSweep;
    enqueue(Ed.Reader, Target);
  };
  if (static_cast<size_t>(Idx) < Base.Readers.size())
    for (const Edge &Ed : Base.Readers[Idx])
      Scan(Ed);
  // enqueue may grow States, so walk the chain by index from its head.
  const EntryState *E = touched(Idx);
  for (int32_t I = E ? E->EdgeHead : -1; I >= 0;
       I = Added[static_cast<size_t>(I)].Next)
    Scan(Added[static_cast<size_t>(I)].E);
}

WorklistScheduler::WorklistScheduler(ExtensionTable &Table,
                                     AbstractMachine &Machine,
                                     const TraceBank *Bank)
    : Table(Table), Machine(Machine) {
  if (Bank)
    Replay = std::make_unique<TraceReplay>(*Bank, Table, Core, Machine);
}

WorklistScheduler::~WorklistScheduler() = default;

bool WorklistScheduler::replayFrame(ETEntry &E, bool Created) {
  return Replay && Replay->tryReplayFrame(E, Created);
}

WorklistScheduler::Status WorklistScheduler::run(ETEntry &Root,
                                                 int MaxSweeps) {
  assert(Root.Idx >= 0 && "root entry must live in the table");
  Machine.setDependencySink(this);
  Core.setCurrentSweep(1);
  Status Out = Status::Converged;
  if (MaxSweeps < 1) {
    Out = Status::BudgetHit;
  } else {
    Core.ensure(Table.size());
    Core.enqueue(Root.Idx, Core.currentSweep());
    while (std::optional<SchedulerCore::QNode> N = Core.popLive()) {
      auto [Sweep, Idx] = *N;
      if (Sweep > Core.currentSweep()) {
        if (Sweep > static_cast<uint64_t>(MaxSweeps)) {
          Out = Status::BudgetHit;
          break;
        }
        Core.setCurrentSweep(Sweep);
      }
      ++Core.statsMut().Runs;
      ETEntry &E = Table.entryAt(static_cast<size_t>(Idx));
      if (Replay && Replay->tryReplay(E))
        continue;
      if (Machine.runActivation(E) == AbsRunStatus::Error) {
        Out = Status::Error;
        break;
      }
    }
  }
  // sweeps actually executed
  Core.statsMut().Sweeps = MaxSweeps < 1 ? 0 : Core.currentSweep();
  Machine.setDependencySink(nullptr);
  return Out;
}
