//===- analyzer/Incremental.cpp - Validated journal replay ----------------===//
//
// Validated journal replay: see the protocol description in Incremental.h.
//
//===----------------------------------------------------------------------===//

#include "analyzer/Incremental.h"

#include "compiler/ProgramCompiler.h"

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

/// Group key for (root pid, calling pattern) — same mixing constant as the
/// table's structural index.
uint64_t groupKey(int32_t Pid, const Pattern &Call) {
  return static_cast<uint64_t>(Call.hash()) ^
         (static_cast<uint64_t>(static_cast<uint32_t>(Pid)) *
          0x9e3779b97f4a7c15ull);
}

} // namespace

TraceReplay::TraceReplay(const TraceBank &Bank, ExtensionTable &Table,
                         SchedulerCore &Core, AbstractMachine &Machine)
    : Bank(Bank), Table(Table), Core(Core), Machine(Machine) {
  // Group the traces by root key in bank order, so the Nth pop of a key
  // consumes the trace of the Nth committed run of that key; replays and
  // executions interleave without sliding the correspondence.
  for (size_t I = 0; I != Bank.size(); ++I) {
    const RunTrace &T = *Bank[I];
    std::vector<RootGroup> &Bucket = Groups[groupKey(T.Pred, T.Call)];
    RootGroup *G = nullptr;
    for (RootGroup &Cand : Bucket)
      if (Cand.Pid == T.Pred && *Cand.Call == T.Call) {
        G = &Cand;
        break;
      }
    if (!G) {
      Bucket.push_back(RootGroup{T.Pred, &T.Call, {}, 0});
      G = &Bucket.back();
    }
    G->TraceIdx.push_back(I);
  }
}

const RunTrace *TraceReplay::takeTrace(const ETEntry &Root,
                                       size_t &TraceIdxOut) {
  auto It = Groups.find(groupKey(Root.PredId, Root.Call));
  if (It == Groups.end())
    return nullptr;
  for (RootGroup &G : It->second) {
    if (G.Pid != Root.PredId || !(*G.Call == Root.Call))
      continue;
    if (G.Cursor >= G.TraceIdx.size())
      return nullptr;
    TraceIdxOut = G.TraceIdx[G.Cursor++];
    return Bank[TraceIdxOut].get();
  }
  return nullptr;
}

/// One validated transition of an apply plan. Pattern pointers point into
/// the owning trace, which the bank keeps alive past the replay.
struct TraceReplay::ReplayOp {
  enum Kind : uint8_t {
    Begin,  ///< A = entry idx: beginActivation + EverExplored
    Create, ///< A = pid, B = expected idx, Pat = calling pattern
    Read,   ///< A = reader, B = dep (apply reads the live version)
    Grow,   ///< A = entry idx, Pat = new summary
  } K;
  int32_t A = -1;
  int32_t B = -1;
  const Pattern *Pat = nullptr;
};

/// A validated replay: the trace it came from and the transitions that
/// applying it performs, with every index resolved.
struct TraceReplay::ReplayPlan {
  size_t TraceIdx = 0; ///< into the bank
  std::vector<ReplayOp> Ops;
};

bool TraceReplay::simulate(const ETEntry &Root, const RunTrace &T,
                           ReplayPlan &Out) const {
  if (!(Root.Success == T.PreSuccess))
    return false;

  // The simulation overlays the live table (never written) with the
  // effects the trace would apply, and drives a copy-on-write overlay of
  // the live core through the schedule transitions, so memo-vs-explore
  // decisions are answered exactly as the machine's shouldReexplore query
  // would be — at cost proportional to the trace, not the core.
  const size_t LiveSize = Table.size();
  SchedulerCore::Overlay Clone(Core);

  struct SimNew {
    int32_t Pid;
    const Pattern *Call;
  };
  std::vector<SimNew> SimCreated;
  std::unordered_map<int32_t, std::vector<size_t>> SimByPid;
  std::unordered_map<int32_t, const Pattern *> SuccOverride;
  std::unordered_map<int32_t, uint32_t> VerOverride;
  std::unordered_map<int32_t, char> ExplOverride;

  auto FindSim = [&](int32_t Pid, const Pattern &Call) -> int32_t {
    if (const ETEntry *E = Table.findExisting(Pid, Call))
      return E->Idx;
    auto It = SimByPid.find(Pid);
    if (It != SimByPid.end())
      for (size_t I : It->second)
        if (*SimCreated[I].Call == Call)
          return static_cast<int32_t>(LiveSize + I);
    return -1;
  };
  auto SimSuccess = [&](int32_t Idx) -> const Pattern * {
    auto It = SuccOverride.find(Idx);
    if (It != SuccOverride.end())
      return It->second;
    if (static_cast<size_t>(Idx) < LiveSize) {
      const std::optional<Pattern> &S = Table.entryAt(Idx).Success;
      return S ? &*S : nullptr;
    }
    return nullptr; // created this run: no summary until it grows
  };
  auto SimVer = [&](int32_t Idx) -> uint32_t {
    auto It = VerOverride.find(Idx);
    if (It != VerOverride.end())
      return It->second;
    if (static_cast<size_t>(Idx) < LiveSize)
      return Table.entryAt(Idx).SuccessVersion;
    return 0;
  };
  auto SimExplored = [&](int32_t Idx) -> bool {
    auto It = ExplOverride.find(Idx);
    if (It != ExplOverride.end())
      return It->second != 0;
    if (static_cast<size_t>(Idx) >= LiveSize)
      return false;
    return Table.entryAt(Idx).EverExplored;
  };
  auto SummaryMatches = [&](int32_t Idx, const std::optional<Pattern> &Want) {
    const Pattern *Have = SimSuccess(Idx);
    if (!Have || !Want)
      return !Have && !Want;
    return *Have == *Want;
  };

  std::vector<int32_t> Stack;

  // runActivation's preamble: the root activation begins.
  Clone.beginActivation(Root.Idx);
  ExplOverride[Root.Idx] = 1;
  Out.Ops.push_back({ReplayOp::Begin, Root.Idx, -1, nullptr});
  Stack.push_back(Root.Idx);

  for (const TraceOp &Op : T.Ops) {
    switch (Op.K) {
    case TraceOp::Memo: {
      int32_t Idx = FindSim(Op.Pred, Op.Call);
      if (Idx < 0)
        return false; // execution would create-and-explore, not memo
      if (!SimExplored(Idx) || Clone.shouldReexplore(Idx))
        return false; // execution would explore inline here
      if (!SummaryMatches(Idx, Op.Summary))
        return false; // the summary the run consumed has changed
      Clone.noteRead(Stack.back(), Idx, SimVer(Idx));
      Out.Ops.push_back({ReplayOp::Read, Stack.back(), Idx, nullptr});
      break;
    }
    case TraceOp::Enter: {
      int32_t Idx = FindSim(Op.Pred, Op.Call);
      if (Op.Created) {
        if (Idx >= 0)
          return false; // execution would find the entry, not create it
        Idx = static_cast<int32_t>(LiveSize + SimCreated.size());
        SimByPid[Op.Pred].push_back(SimCreated.size());
        SimCreated.push_back({Op.Pred, &Op.Call});
        Out.Ops.push_back({ReplayOp::Create, Op.Pred, Idx, &Op.Call});
      } else {
        if (Idx < 0)
          return false; // execution would create it (Created mismatch)
        if (SimExplored(Idx) && !Clone.shouldReexplore(Idx))
          return false; // execution would answer from the memo here
      }
      if (!SummaryMatches(Idx, Op.Summary))
        return false; // pre-exploration memo differs: clause runs diverge
      Clone.beginActivation(Idx);
      ExplOverride[Idx] = 1;
      Out.Ops.push_back({ReplayOp::Begin, Idx, -1, nullptr});
      Stack.push_back(Idx);
      break;
    }
    case TraceOp::Exit: {
      assert(!Stack.empty() && "balanced trace (unbalanced ones never bank)");
      int32_t Child = Stack.back();
      Stack.pop_back();
      // returnFromFrame: the parent's continuation reads the child's final
      // summary. The root's own exit has no parent and records no read.
      if (!Stack.empty()) {
        Clone.noteRead(Stack.back(), Child, SimVer(Child));
        Out.Ops.push_back({ReplayOp::Read, Stack.back(), Child, nullptr});
      }
      break;
    }
    case TraceOp::Grow: {
      assert(!Stack.empty() && Op.Summary && "grow applies to the open frame");
      int32_t Idx = Stack.back();
      uint32_t NewVer = SimVer(Idx) + 1;
      SuccOverride[Idx] = &*Op.Summary;
      VerOverride[Idx] = NewVer;
      Clone.noteChanged(Idx, NewVer);
      Out.Ops.push_back({ReplayOp::Grow, Idx, -1, &*Op.Summary});
      break;
    }
    }
  }
  return Stack.empty();
}

void TraceReplay::applyPlan(const ReplayPlan &Plan) {
  for (const ReplayOp &Op : Plan.Ops) {
    switch (Op.K) {
    case ReplayOp::Begin: {
      ETEntry &E = Table.entryAt(static_cast<size_t>(Op.A));
      Core.beginActivation(E.Idx);
      E.EverExplored = true;
      break;
    }
    case ReplayOp::Create: {
      bool Created = false;
      ETEntry &E = Table.interner()
                       ? Table.findOrCreateByPattern(Op.A, *Op.Pat, Created)
                       : Table.findOrCreate(Op.A, *Op.Pat, Created);
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
      E.Success.emplace(*Op.Pat);
      if (PatternInterner *In = Table.interner())
        E.SuccessId = In->intern(*E.Success);
      Table.noteSuccessChanged(E);
      Core.noteChanged(E.Idx, E.SuccessVersion);
      break;
    }
    }
  }
  const std::shared_ptr<const RunTrace> &T = Bank[Plan.TraceIdx];
  Machine.charge(T->Steps, T->Activations);
  if (RunJournal *Out = Machine.runJournal())
    Out->append(T);
  ++Core.statsMut().ReplayedRuns;
  Core.statsMut().ReplayedActivations += T->Activations;
}

bool TraceReplay::tryReplay(ETEntry &Root) {
  size_t TI = 0;
  const RunTrace *T = takeTrace(Root, TI);
  if (!T)
    return false;
  // A run that would trip the instruction budget errors partway through
  // with partial effects; only real execution reproduces that exactly.
  // (Steps never exceeds the budget inside a drain that is still going.)
  if (T->Steps > Machine.maxSteps() - Machine.stepsExecuted())
    return false;

  ReplayPlan Plan;
  Plan.TraceIdx = TI;
  if (!simulate(Root, *T, Plan))
    return false;
  applyPlan(Plan);
  return true;
}
