//===- analyzer/Incremental.cpp - Validated journal replay ----------------===//
//
// Validated journal replay: see the protocol description in Incremental.h.
//
//===----------------------------------------------------------------------===//

#include "analyzer/Incremental.h"

#include "compiler/ProgramCompiler.h"

#include <algorithm>
#include <cassert>

using namespace awam;

namespace {

/// Do two instructions perform the same operation, with pool/table indices
/// resolved to their meaning? Both modules must share one SymbolTable (the
/// callers guarantee it), so Symbol values compare directly. Address-typed
/// operands (try/retry/trust chains, switches, jumps) are conservatively
/// unequal — clause code blocks never contain them, so this only fires if
/// that invariant ever changes, and it fails safe (pred counted edited).
bool instrEquiv(const CodeModule &MA, const Instruction &A,
                const CodeModule &MB, const Instruction &B) {
  if (A.Op != B.Op)
    return false;
  switch (A.Op) {
  case Opcode::GetConst:
  case Opcode::PutConst:
  case Opcode::UnifyConst:
    return A.B == B.B && MA.constAt(A.A) == MB.constAt(B.A);
  case Opcode::GetStructure:
  case Opcode::PutStructure:
    return A.B == B.B && MA.functorAt(A.A) == MB.functorAt(B.A);
  case Opcode::Call:
  case Opcode::Execute: {
    const PredicateInfo &PA = MA.predicate(A.A);
    const PredicateInfo &PB = MB.predicate(B.A);
    return PA.Name == PB.Name && PA.Arity == PB.Arity;
  }
  case Opcode::Try:
  case Opcode::Retry:
  case Opcode::Trust:
  case Opcode::Jump:
  case Opcode::SwitchOnTerm:
  case Opcode::SwitchOnConstant:
  case Opcode::SwitchOnStructure:
    return false;
  default:
    return A.A == B.A && A.B == B.B;
  }
}

} // namespace

std::vector<PredSig> awam::diffPrograms(const CompiledProgram &Old,
                                        const CompiledProgram &New) {
  const CodeModule &MO = *Old.Module;
  const CodeModule &MN = *New.Module;
  std::vector<PredSig> Edited;
  auto sigOf = [](const CodeModule &M, const PredicateInfo &P) {
    return PredSig{std::string(M.symbols().name(P.Name)), P.Arity};
  };
  if (&MO.symbols() != &MN.symbols()) {
    for (int32_t I = 0; I != MO.numPredicates(); ++I)
      Edited.push_back(sigOf(MO, MO.predicate(I)));
    for (int32_t I = 0; I != MN.numPredicates(); ++I)
      Edited.push_back(sigOf(MN, MN.predicate(I)));
    return Edited;
  }
  for (int32_t I = 0; I != MN.numPredicates(); ++I) {
    const PredicateInfo &PN = MN.predicate(I);
    int32_t OldId = MO.findPredicate(PN.Name, PN.Arity);
    if (OldId < 0) {
      if (!PN.Clauses.empty()) // newly defined
        Edited.push_back(sigOf(MN, PN));
      continue;
    }
    const PredicateInfo &PO = MO.predicate(OldId);
    bool Same = PO.Clauses.size() == PN.Clauses.size();
    for (size_t C = 0; Same && C != PN.Clauses.size(); ++C) {
      const ClauseInfo &CO = PO.Clauses[C];
      const ClauseInfo &CN = PN.Clauses[C];
      Same = CO.NumInstr == CN.NumInstr;
      for (int32_t K = 0; Same && K != CN.NumInstr; ++K)
        Same = instrEquiv(MO, MO.at(CO.Entry + K), MN, MN.at(CN.Entry + K));
    }
    if (!Same)
      Edited.push_back(sigOf(MN, PN));
  }
  for (int32_t I = 0; I != MO.numPredicates(); ++I) {
    const PredicateInfo &PO = MO.predicate(I);
    if (PO.Clauses.empty())
      continue;
    int32_t NewId = MN.findPredicate(PO.Name, PO.Arity);
    if (NewId < 0 || MN.predicate(NewId).Clauses.empty()) // removed
      Edited.push_back(sigOf(MO, PO));
  }
  return Edited;
}

namespace {

/// Key of a (predicate, calling pattern id) pair: trace groups and
/// simulated creations are indexed by it.
uint64_t pidCallKey(int32_t Pid, PatternId Call) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(Pid)) << 32) | Call;
}

/// Key of the trace group of \p Frame traces rooted at (\p Pid, \p Call).
/// Pids are non-negative int32s, so bit 63 is free to keep frame groups
/// apart from run groups of the same root.
uint64_t groupKey(int32_t Pid, PatternId Call, bool Frame) {
  return pidCallKey(Pid, Call) | (Frame ? uint64_t(1) << 63 : 0);
}

constexpr uint32_t kNoTrace = 0xFFFFFFFFu;

} // namespace

TraceReplay::TraceReplay(const TraceBank &Bank, ExtensionTable &Table,
                         SchedulerCore &Core, AbstractMachine &Machine)
    : Bank(Bank), Table(Table), Core(Core), Machine(Machine), Sim(Core) {
  assert(Table.interner() && "replay compares interned pattern ids");
  // Chain the traces by root key and kind in bank order, so the Nth pop
  // of a key consumes the trace of the Nth committed run of that key (and
  // the Nth inline exploration the Nth frame); replays and executions
  // interleave without sliding the correspondence.
  NextInGroup.assign(Bank.size(), kNoTrace);
  std::vector<uint32_t> Tail;
  for (size_t I = 0; I != Bank.size(); ++I) {
    const RunTrace &T = *Bank[I];
    uint64_t Key = groupKey(T.Pred, T.Call, T.Frame);
    uint32_t G = GroupOf.lookup(Key);
    if (G == detail::FlatMap64::kEmpty) {
      G = static_cast<uint32_t>(GroupCursor.size());
      GroupOf.insert(Key, G);
      GroupCursor.push_back(static_cast<uint32_t>(I));
      Tail.push_back(static_cast<uint32_t>(I));
    } else {
      NextInGroup[Tail[G]] = static_cast<uint32_t>(I);
      Tail[G] = static_cast<uint32_t>(I);
    }
  }
}

int64_t TraceReplay::takeTrace(const ETEntry &Root, bool Frame) {
  uint32_t G = GroupOf.lookup(groupKey(Root.PredId, Root.CallId, Frame));
  if (G == detail::FlatMap64::kEmpty || GroupCursor[G] == kNoTrace)
    return -1;
  uint32_t I = GroupCursor[G];
  GroupCursor[G] = NextInGroup[I];
  return I;
}

void TraceReplay::newEpoch() {
  if (++Epoch == 0) { // stamps wrapped: forget them for real
    SimEntries.assign(SimEntries.size(), SimEntry());
    CreatedSlots.assign(CreatedSlots.size(), SimCreated());
    Epoch = 1;
  }
}

TraceReplay::SimEntry &TraceReplay::sim(int32_t Idx) {
  if (static_cast<size_t>(Idx) >= SimEntries.size())
    SimEntries.resize(std::max(static_cast<size_t>(Idx) + 1, Table.size()));
  SimEntry &S = SimEntries[static_cast<size_t>(Idx)];
  if (S.Stamp != Epoch) {
    S.Stamp = Epoch;
    if (static_cast<size_t>(Idx) < LiveSize) {
      const ETEntry &E = Table.entryAt(static_cast<size_t>(Idx));
      S.Success = E.SuccessId;
      S.Version = E.SuccessVersion;
      S.Explored = E.EverExplored;
    } else { // created this run: no summary until it grows
      S.Success = kInvalidPatternId;
      S.Version = 0;
      S.Explored = false;
    }
  }
  return S;
}

int32_t TraceReplay::findSim(int32_t Pid, PatternId Call) const {
  if (const ETEntry *E = Table.findExisting(Pid, Call))
    return E->Idx;
  uint32_t Slot = CreatedSlot.lookup(pidCallKey(Pid, Call));
  if (Slot != detail::FlatMap64::kEmpty && CreatedSlots[Slot].Stamp == Epoch)
    return CreatedSlots[Slot].Idx;
  return -1;
}

bool TraceReplay::simulate(const ETEntry &Root, const RunTrace &T) {
  if (Root.SuccessId != T.PreSuccess)
    return false;

  // The simulation overlays the live table (never written) with the
  // effects the trace would apply, and drives the overlay of the live
  // core through the schedule transitions, so memo-vs-explore decisions
  // are answered exactly as the machine's shouldReexplore query would be
  // — at cost proportional to the trace, not the core. Equal ids are
  // equal patterns (one interner), so every check is an id comparison.
  newEpoch();
  Sim.reset();
  LiveSize = Table.size();
  NumCreated = 0;
  Stack.clear();
  Plan.clear();

  // runActivation's preamble, or the inline exploration's in doCall: the
  // root activation begins.
  Sim.beginActivation(Root.Idx);
  sim(Root.Idx).Explored = true;
  Plan.push_back({ReplayOp::Begin, Root.Idx, -1, kInvalidPatternId});
  Stack.push_back(Root.Idx);

  for (const TraceOp &Op : T.Ops) {
    switch (Op.K) {
    case TraceOp::Memo: {
      int32_t Idx = findSim(Op.Pred, Op.Call);
      if (Idx < 0)
        return false; // execution would create-and-explore, not memo
      if (!sim(Idx).Explored || Sim.shouldReexplore(Idx))
        return false; // execution would explore inline here
      if (sim(Idx).Success != Op.Summary)
        return false; // the summary the run consumed has changed
      Sim.noteRead(Stack.back(), Idx, sim(Idx).Version);
      Plan.push_back({ReplayOp::Read, Stack.back(), Idx, kInvalidPatternId});
      break;
    }
    case TraceOp::Enter: {
      int32_t Idx = findSim(Op.Pred, Op.Call);
      if (Op.Created) {
        if (Idx >= 0)
          return false; // execution would find the entry, not create it
        Idx = static_cast<int32_t>(LiveSize) + NumCreated++;
        uint64_t Key = pidCallKey(Op.Pred, Op.Call);
        uint32_t Slot = CreatedSlot.lookup(Key);
        if (Slot == detail::FlatMap64::kEmpty) {
          Slot = static_cast<uint32_t>(CreatedSlots.size());
          CreatedSlots.emplace_back();
          CreatedSlot.insert(Key, Slot);
        }
        CreatedSlots[Slot] = {Epoch, Idx};
        Plan.push_back({ReplayOp::Create, Op.Pred, Idx, Op.Call});
      } else {
        if (Idx < 0)
          return false; // execution would create it (Created mismatch)
        if (sim(Idx).Explored && !Sim.shouldReexplore(Idx))
          return false; // execution would answer from the memo here
      }
      if (sim(Idx).Success != Op.Summary)
        return false; // pre-exploration memo differs: clause runs diverge
      Sim.beginActivation(Idx);
      sim(Idx).Explored = true;
      Plan.push_back({ReplayOp::Begin, Idx, -1, kInvalidPatternId});
      Stack.push_back(Idx);
      break;
    }
    case TraceOp::Exit: {
      assert(!Stack.empty() && "balanced trace (unbalanced ones never bank)");
      int32_t Child = Stack.back();
      Stack.pop_back();
      // returnFromFrame: the parent's continuation reads the child's final
      // summary. The root's own exit has no parent here: a run's root has
      // none, and a replayed frame's caller reads it in the machine.
      if (!Stack.empty()) {
        Sim.noteRead(Stack.back(), Child, sim(Child).Version);
        Plan.push_back(
            {ReplayOp::Read, Stack.back(), Child, kInvalidPatternId});
      }
      break;
    }
    case TraceOp::Grow: {
      assert(!Stack.empty() && Op.Summary != kInvalidPatternId &&
             "grow applies to the open frame");
      int32_t Idx = Stack.back();
      SimEntry &S = sim(Idx);
      S.Success = Op.Summary;
      ++S.Version;
      Sim.noteChanged(Idx, S.Version);
      Plan.push_back({ReplayOp::Grow, Idx, -1, Op.Summary});
      break;
    }
    }
  }
  return Stack.empty();
}

void TraceReplay::applyPlan(size_t TraceIdx, bool Created) {
  PatternInterner &In = *Table.interner();
  uint64_t Activations = 0;
  for (const ReplayOp &Op : Plan) {
    switch (Op.K) {
    case ReplayOp::Begin: {
      ETEntry &E = Table.entryAt(static_cast<size_t>(Op.A));
      Core.beginActivation(E.Idx);
      E.EverExplored = true;
      ++Activations;
      break;
    }
    case ReplayOp::Create: {
      bool Created = false;
      ETEntry &E = Table.findOrCreate(Op.A, Op.Pat, Created);
      assert(Created && E.Idx == Op.B && "validated creation must hold");
      (void)E;
      (void)Created;
      Core.ensure(Table.size());
      break;
    }
    case ReplayOp::Read:
      Core.noteRead(Op.A, Op.B,
                    Table.entryAt(static_cast<size_t>(Op.B)).SuccessVersion);
      break;
    case ReplayOp::Grow: {
      ETEntry &E = Table.entryAt(static_cast<size_t>(Op.A));
      E.SuccessId = Op.Pat;
      E.Success.emplace(In.pattern(Op.Pat));
      Table.noteSuccessChanged(E);
      Core.noteChanged(E.Idx, E.SuccessVersion);
      break;
    }
    }
  }
  const std::shared_ptr<const RunTrace> &T = Bank[TraceIdx];
  Machine.charge(T->Steps, Activations);
  // A run carries over by handle; a frame's ops join the run recording
  // around it, as execution would have recorded them.
  if (RunJournal *Out = Machine.runJournal()) {
    if (T->Frame)
      Out->spliceFrame(*T, Created);
    else
      Out->append(T);
  }
  if (!T->Frame)
    ++Core.statsMut().ReplayedRuns;
  Core.statsMut().ReplayedActivations += Activations;
}

bool TraceReplay::replay(ETEntry &Root, bool Frame, bool Created) {
  int64_t TI = takeTrace(Root, Frame);
  if (TI < 0)
    return false;
  const RunTrace &T = *Bank[static_cast<size_t>(TI)];
  // A run that would trip the instruction budget errors partway through
  // with partial effects; only real execution reproduces that exactly.
  // (Steps never exceeds the budget inside a drain that is still going.)
  if (T.Steps > Machine.maxSteps() - Machine.stepsExecuted())
    return false;
  if (!simulate(Root, T))
    return false;
  applyPlan(static_cast<size_t>(TI), Created);
  return true;
}

bool TraceReplay::tryReplay(ETEntry &Root) {
  return replay(Root, /*Frame=*/false, /*Created=*/false);
}

bool TraceReplay::tryReplayFrame(ETEntry &Root, bool Created) {
  return replay(Root, /*Frame=*/true, Created);
}
