//===- analyzer/AbstractMachine.cpp - Reinterpreted WAM dispatch ----------===//

#include "analyzer/AbstractMachine.h"

#include "analyzer/Domain.h"
#include "analyzer/RunJournal.h"

#include "absdom/AbsBuiltins.h"
#include "absdom/AbsOps.h"
#include "compiler/Builtins.h"

#include <algorithm>
#include <span>

using namespace awam;

AbstractMachine::AbstractMachine(const CompiledProgram &Program,
                                 ExtensionTable &Table,
                                 AbsMachineOptions Options)
    : Program(Program), Module(*Program.Module), Table(Table),
      Interner(Table.interner()), Options(Options),
      X(std::max(Program.MaxXReg, 8)) {
  Dom = this->Options.Dom ? this->Options.Dom : &defaultDomain();
  DomState = Dom->makeRunState();
}

void AbstractMachine::machineError(std::string Message) {
  ErrorMsg = std::move(Message);
  HasError = true;
  Running = false;
}

/// Appends a control-scheme trace line when tracing is enabled.
#define AWAM_TRACE(Text)                                                     \
  do {                                                                       \
    if (Options.TraceLog)                                                    \
      Options.TraceLog->push_back(Text);                                     \
  } while (false)

void AbstractMachine::resetRun() {
  St.reset();
  if (DomState)
    DomState->rewindTo(0);
  Envs.clear();
  Frames.clear();
  std::fill(X.begin(), X.end(), Cell());
  P = kHaltAddress;
  CP = kHaltAddress;
  E = -1;
  S = 0;
  WriteMode = false;
  Changed = false;
  HasError = false;
  ErrorMsg.clear();
}

AbsRunStatus AbstractMachine::driveToCompletion() {
  Running = true;
  enterClause();
  while (Running && !HasError)
    if (!step())
      break;
  return HasError ? AbsRunStatus::Error : AbsRunStatus::Completed;
}

AbsRunStatus AbstractMachine::runIteration(int32_t PredId,
                                           const Pattern &Entry) {
  assert(!Deps && "runIteration is the naive protocol; use runActivation "
                  "with a dependency sink");
  resetRun();
  Table.beginIteration();

  bool Created = false;
  // Entry patterns are hand-built (makeEntryPattern / parseEntrySpec), so
  // the interned id comes from the normalizing intern.
  ETEntry &TopEntry =
      Interner ? Table.findOrCreate(PredId, Interner->internNormalized(Entry),
                                    Created)
               : Table.findOrCreate(PredId, Entry, Created);
  if (Created)
    Changed = true;
  TopEntry.Explored = true;
  ++Activations;

  AnalysisFrame F;
  F.Entry = &TopEntry;
  F.PredId = PredId;
  for (int64_t Addr : instantiate(St, Entry))
    F.CallerArgs.push_back(Cell::ref(Addr));
  F.SavedCP = kHaltAddress;
  F.SavedE = -1;
  // Fast path: the calling pattern is instantiated once per exploration,
  // below the frame's marks; each clause attempt's unwind restores the
  // cells to this pristine state (the trail records old values
  // unconditionally), instead of re-instantiating per clause.
  if (Interner)
    instantiate(St, TopEntry.Call, CellOfBuf, F.CalleeArgs);
  F.TrailMark = St.trailMark();
  F.HeapMark = St.heapTop();
  F.EnvMark = 0;
  F.DomMark = DomState ? DomState->mark() : 0;
  F.StepsMark = Steps;
  Frames.push_back(std::move(F));

  return driveToCompletion();
}

AbsRunStatus AbstractMachine::runActivation(ETEntry &Root) {
  assert(Deps && "runActivation needs a dependency sink (worklist mode)");
  resetRun();

  // Journal recording brackets the run: beginRun snapshots the root's
  // pre-run summary (before any updateET can grow it), endRun stores the
  // run's own step cost.
  uint64_t Steps0 = Steps;
  if (Journal)
    Journal->beginRun(Root);

  Deps->beginActivation(Root);
  Root.EverExplored = true;
  ++Activations;

  AnalysisFrame F;
  F.Entry = &Root;
  F.PredId = Root.PredId;
  for (int64_t Addr : instantiate(St, Root.Call))
    F.CallerArgs.push_back(Cell::ref(Addr));
  F.SavedCP = kHaltAddress;
  F.SavedE = -1;
  if (Interner)
    instantiate(St, Root.Call, CellOfBuf, F.CalleeArgs);
  F.TrailMark = St.trailMark();
  F.HeapMark = St.heapTop();
  F.EnvMark = 0;
  F.DomMark = DomState ? DomState->mark() : 0;
  F.StepsMark = Steps;
  Frames.push_back(std::move(F));

  AbsRunStatus Status = driveToCompletion();
  if (Journal)
    Journal->endRun(Steps - Steps0, Status == AbsRunStatus::Error);
  return Status;
}

void AbstractMachine::enterClause() {
  AnalysisFrame &F = Frames.back();
  const PredicateInfo &Pred = Module.predicate(F.PredId);
  if (F.ClauseIdx >= Pred.Clauses.size()) {
    returnFromFrame();
    return;
  }
  // Fresh attempt: discard the previous clause's bindings and allocations
  // (domain run state backtracks in lockstep with the trail).
  St.unwind(F.TrailMark);
  St.truncate(F.HeapMark);
  if (DomState)
    DomState->rewindTo(F.DomMark);
  Envs.resize(F.EnvMark);
  E = F.SavedE;
  WriteMode = false;

  // Interned path: F.CalleeArgs was instantiated once at frame setup and
  // the unwind above just restored those cells to their pristine state.
  if (!Interner)
    F.CalleeArgs = instantiate(St, F.Entry->Call);
  for (size_t I = 0; I != F.CalleeArgs.size(); ++I)
    X[I] = Cell::ref(F.CalleeArgs[I]);
  P = Pred.Clauses[F.ClauseIdx].Entry;
  AWAM_TRACE("explore " + Module.predicateLabel(F.PredId) + " clause " +
             std::to_string(F.ClauseIdx + 1) + " with " +
             F.Entry->Call.str(Module.symbols()));
}

void AbstractMachine::failCurrent() {
  assert(!Frames.empty() && "failure with no analysis frame");
  ++Frames.back().ClauseIdx;
  enterClause();
}

/// updateET grew \p Entry's summary: bump its version (readers compare
/// against it) and tell the scheduler, which re-enqueues stale readers.
void AbstractMachine::summaryGrew(ETEntry &Entry) {
  Table.noteSuccessChanged(Entry);
  Changed = true;
  if (Deps) {
    if (Journal)
      Journal->noteGrow(Entry);
    Deps->noteChanged(Entry);
  }
}

void AbstractMachine::clauseSucceeded() {
  AnalysisFrame &F = Frames.back();

  // updateET: summarize success patterns with lub. The common case at the
  // fixpoint is re-deriving an already-summarized pattern; with interning
  // that is one id comparison, and re-deriving a pattern already folded in
  // hits the lub memo instead of re-running the instantiate/lub/
  // re-canonicalize dance.
  if (Interner) {
    ArgsBuf.clear();
    ArgsBuf.reserve(F.CalleeArgs.size());
    for (int64_t Addr : F.CalleeArgs)
      ArgsBuf.push_back(Cell::ref(Addr));
    Dom->abstractSuccess(St, ArgsBuf, CanonCtx, SPatBuf, Options.DepthLimit,
                         DomState.get());
    // Re-deriving the already-summarized success pattern is the common
    // case at the fixpoint: detect it with one structural compare and
    // skip the intern (hash + bucket probe) entirely.
    if (F.Entry->SuccessId != kInvalidPatternId &&
        SPatBuf == Interner->pattern(F.Entry->SuccessId)) {
      // Summary unchanged; nothing to record.
    } else {
      PatternId SId = Interner->intern(SPatBuf);
      if (F.Entry->SuccessId == kInvalidPatternId) {
        F.Entry->SuccessId = SId;
        F.Entry->Success.emplace(Interner->pattern(SId));
        summaryGrew(*F.Entry);
      } else if (SId != F.Entry->SuccessId) {
        PatternId Merged = Interner->lub(F.Entry->SuccessId, SId);
        if (Merged != F.Entry->SuccessId) {
          F.Entry->SuccessId = Merged;
          F.Entry->Success.emplace(Interner->pattern(Merged));
          summaryGrew(*F.Entry);
        }
      }
    }
  } else {
    std::vector<Cell> Cells;
    Cells.reserve(F.CalleeArgs.size());
    for (int64_t Addr : F.CalleeArgs)
      Cells.push_back(Cell::ref(Addr));
    Pattern SPat = canonicalize(St, Cells, Options.DepthLimit);
    if (F.Entry->Success) {
      if (!(SPat == *F.Entry->Success)) {
        Pattern Merged =
            lubPatterns(*F.Entry->Success, SPat, Options.DepthLimit);
        if (!(Merged == *F.Entry->Success)) {
          F.Entry->Success = std::move(Merged);
          summaryGrew(*F.Entry);
        }
      }
    } else {
      F.Entry->Success = std::move(SPat);
      summaryGrew(*F.Entry);
    }
  }

  AWAM_TRACE("proceed => updateET(" + Module.predicateLabel(F.PredId) +
             " " + F.Entry->Success->str(Module.symbols()) +
             "), fail to next clause");

  // Artificial failure: explore the next clause.
  ++F.ClauseIdx;
  enterClause();
}

void AbstractMachine::returnFromFrame() {
  AnalysisFrame F = std::move(Frames.back());
  Frames.pop_back();

  // Discard the callee's working state. Domain run state rewinds to the
  // caller's scope; finishCall's applySuccess may append to it there.
  St.unwind(F.TrailMark);
  St.truncate(F.HeapMark);
  if (DomState)
    DomState->rewindTo(F.DomMark);
  Envs.resize(F.EnvMark);
  E = F.SavedE;

  AWAM_TRACE("clauses of " + Module.predicateLabel(F.PredId) +
             " exhausted => lookupET -> " +
             (F.Entry->Success ? F.Entry->Success->str(Module.symbols())
                               : std::string("no success pattern")));

  if (Deps && Journal)
    Journal->exitCall(Steps - F.StepsMark);
  finishCall(*F.Entry, F.CallerArgs, F.SavedCP);
}

/// The tail of every answered call — from the memo, by a frame's return,
/// or by a replayed frame: the caller's continuation reads \p Callee's
/// summary (a dependency of the caller's activation), and lookupET applies
/// it to the caller's argument cells \p Args. Success continues at
/// \p ContinueAt; no (compatible) summary fails the caller's clause, or
/// ends the run when \p Callee was its root.
void AbstractMachine::finishCall(const ETEntry &Callee,
                                 const std::vector<Cell> &Args,
                                 int32_t ContinueAt) {
  if (Deps && !Frames.empty())
    Deps->noteRead(*Frames.back().Entry, Callee, Callee.SuccessVersion);
  if (Callee.Success) {
    bool Ok;
    if (Interner) {
      Ok = Dom->applySuccess(St, Args, *Callee.Success, CellOfBuf, RootsBuf,
                             DomState.get());
    } else {
      RootsBuf = instantiate(St, *Callee.Success);
      Ok = true;
      for (size_t I = 0; I != RootsBuf.size() && Ok; ++I)
        Ok = absUnify(St, Args[I], Cell::ref(RootsBuf[I]));
    }
    if (Ok) {
      P = ContinueAt;
      return;
    }
  }
  if (Frames.empty()) {
    Running = false; // top-level goal finitely failed this iteration
    return;
  }
  failCurrent();
}

void AbstractMachine::doCall(int32_t PredId, int32_t ContinueAt) {
  const PredicateInfo &Pred = Module.predicate(PredId);
  ArgsBuf.assign(X.begin(), X.begin() + Pred.Arity);

  bool Created = false;
  ETEntry *Found;
  if (Interner) {
    // Hash-consed path: abstract into the pooled scratch pattern and
    // probe the table with one fused structural lookup; only a miss (a
    // previously unseen calling pattern) pays for interning.
    Dom->abstractCall(St, ArgsBuf, CanonCtx, CPatBuf, Options.DepthLimit,
                      DomState.get());
    Found = &Table.findOrCreateByPattern(PredId, CPatBuf, Created);
  } else {
    Pattern CPat = canonicalize(St, ArgsBuf, Options.DepthLimit,
                                /*WidenConstants=*/true);
    Found = &Table.findOrCreate(PredId, CPat, Created);
  }
  ETEntry &Entry = *Found;
  if (Created)
    Changed = true;

  // Memo-vs-explore decision. Naive protocol: explore each entry once per
  // iteration (the Explored flag, reset by beginIteration). Activation
  // protocol: explore a new entry inline; an already-explored entry
  // answers from the memo unless the scheduler has a pending run for it,
  // in which case it is re-explored inline (mirroring where the naive
  // driver's DFS would re-explore it, which keeps the two drivers'
  // intermediate tables — and hence their fixpoints — identical).
  bool Memo = Deps ? (Entry.EverExplored && !Deps->shouldReexplore(Entry))
                   : Entry.Explored;

  AWAM_TRACE("call " + Module.predicateLabel(PredId) + " with " +
             Entry.Call.str(Module.symbols()) +
             (Memo ? " [explored: consult table]"
                   : " [unexplored: explore clauses]"));

  if (Memo) {
    // Memoized deterministic return (or failure if nothing is known yet —
    // the driver will come back).
    if (Deps && Journal)
      Journal->noteMemo(Entry);
    finishCall(Entry, ArgsBuf, ContinueAt);
    return;
  }

  if (Deps) {
    // Journal replay may apply a recorded exploration of this entry
    // instead; the call then ends as the frame's return would, with the
    // calling-pattern cells the frame would have left below its marks.
    if (Deps->replayFrame(Entry, Created)) {
      if (Interner)
        instantiate(St, Entry.Call, CellOfBuf, CalleeArgsBuf);
      finishCall(Entry, ArgsBuf, ContinueAt);
      return;
    }
    if (Journal)
      Journal->enterCall(Entry, Created);
    Deps->beginActivation(Entry);
    Entry.EverExplored = true;
  } else {
    Entry.Explored = true;
  }
  ++Activations;
  AnalysisFrame F;
  F.Entry = &Entry;
  F.PredId = PredId;
  F.CallerArgs = ArgsBuf;
  F.SavedCP = ContinueAt;
  F.SavedE = E;
  // See runIteration: instantiate the calling pattern once, below the
  // marks, so every clause attempt reuses the restored cells.
  if (Interner)
    instantiate(St, Entry.Call, CellOfBuf, F.CalleeArgs);
  F.TrailMark = St.trailMark();
  F.HeapMark = St.heapTop();
  F.EnvMark = Envs.size();
  F.DomMark = DomState ? DomState->mark() : 0;
  F.StepsMark = Steps;
  Frames.push_back(std::move(F));
  enterClause();
}

bool AbstractMachine::step() {
  if (++Steps > Options.MaxSteps) {
    machineError("abstract instruction budget exceeded");
    return false;
  }
  Instruction I = Module.at(P++);
  switch (I.Op) {
  case Opcode::Halt:
    Running = false;
    return false;

  // ---- Get instructions ----------------------------------------------
  case Opcode::GetVariableX:
    X[I.A] = X[I.B];
    break;
  case Opcode::GetVariableY:
    ySlot(I.A) = X[I.B];
    break;
  case Opcode::GetValueX:
    if (!absUnify(St, X[I.A], X[I.B]))
      failCurrent();
    break;
  case Opcode::GetValueY:
    if (!absUnify(St, ySlot(I.A), X[I.B]))
      failCurrent();
    break;
  case Opcode::GetConst: {
    const ConstOperand &C = Module.constAt(I.A);
    Cell K = C.K == ConstOperand::IntK ? Cell::integer(C.Int)
                                       : Cell::atom(C.Name);
    if (!absUnify(St, X[I.B], K))
      failCurrent();
    break;
  }
  case Opcode::GetList: {
    DerefResult D = St.deref(X[I.A]);
    switch (D.C.T) {
    case Tag::Ref: // concrete write mode
      St.bind(D.Addr, Cell::lis(St.heapTop()));
      WriteMode = true;
      break;
    case Tag::Lis: // concrete read mode
      S = D.C.V;
      WriteMode = false;
      break;
    case Tag::Abs: {
      // ComplexTermInst (Figure 4): generate a [.|.] instance of the
      // abstract term and proceed in read mode over its subterm cells.
      int64_t Base;
      switch (D.C.absKind()) {
      case AbsKind::Any:
      case AbsKind::NV:
        Base = St.push(Cell::abs(AbsKind::Any));
        St.push(Cell::abs(AbsKind::Any));
        break;
      case AbsKind::Ground:
        Base = St.push(Cell::abs(AbsKind::Ground));
        St.push(Cell::abs(AbsKind::Ground));
        break;
      case AbsKind::List: {
        int64_t ElemInst = copyAbs(St, Cell::ref(D.C.V));
        Base = St.push(Cell::ref(ElemInst));
        St.push(Cell::abs(AbsKind::List, D.C.V));
        break;
      }
      default:
        failCurrent(); // const/atom/int have no list instances
        return true;
      }
      St.bind(D.Addr, Cell::lis(Base));
      S = Base;
      WriteMode = false;
      break;
    }
    default:
      failCurrent();
      break;
    }
    break;
  }
  case Opcode::GetStructure: {
    const FunctorArity &Fn = Module.functorAt(I.A);
    DerefResult D = St.deref(X[I.B]);
    switch (D.C.T) {
    case Tag::Ref: {
      int64_t FunAddr = St.push(Cell::fun(Fn.Name, Fn.Arity));
      St.bind(D.Addr, Cell::str(FunAddr));
      WriteMode = true;
      break;
    }
    case Tag::Str: {
      const Cell FC = St.at(D.C.V);
      if (FC.V != Fn.Name || FC.funArity() != Fn.Arity) {
        failCurrent();
        break;
      }
      S = D.C.V + 1;
      WriteMode = false;
      break;
    }
    case Tag::Abs: {
      AbsKind K = D.C.absKind();
      if (K != AbsKind::Any && K != AbsKind::NV && K != AbsKind::Ground) {
        failCurrent(); // lists/constants have no f/n instances
        break;
      }
      AbsKind ArgKind =
          K == AbsKind::Ground ? AbsKind::Ground : AbsKind::Any;
      int64_t FunAddr = St.push(Cell::fun(Fn.Name, Fn.Arity));
      for (int32_t N = 0; N != Fn.Arity; ++N)
        St.push(Cell::abs(ArgKind));
      St.bind(D.Addr, Cell::str(FunAddr));
      S = FunAddr + 1;
      WriteMode = false;
      break;
    }
    default:
      failCurrent();
      break;
    }
    break;
  }

  // ---- Put instructions (identical to the concrete machine) -----------
  case Opcode::PutVariableX: {
    int64_t A = St.pushVar();
    X[I.A] = Cell::ref(A);
    X[I.B] = Cell::ref(A);
    break;
  }
  case Opcode::PutVariableY: {
    int64_t A = St.pushVar();
    ySlot(I.A) = Cell::ref(A);
    X[I.B] = Cell::ref(A);
    break;
  }
  case Opcode::PutValueX:
    X[I.B] = X[I.A];
    break;
  case Opcode::PutValueY:
    X[I.B] = ySlot(I.A);
    break;
  case Opcode::PutConst: {
    const ConstOperand &C = Module.constAt(I.A);
    X[I.B] = C.K == ConstOperand::IntK ? Cell::integer(C.Int)
                                       : Cell::atom(C.Name);
    break;
  }
  case Opcode::PutList:
    X[I.A] = Cell::lis(St.heapTop());
    WriteMode = true;
    break;
  case Opcode::PutStructure: {
    const FunctorArity &Fn = Module.functorAt(I.A);
    int64_t FunAddr = St.push(Cell::fun(Fn.Name, Fn.Arity));
    X[I.B] = Cell::str(FunAddr);
    WriteMode = true;
    break;
  }

  // ---- Unify instructions ---------------------------------------------
  case Opcode::UnifyVariableX:
    X[I.A] = Cell::ref(WriteMode ? St.pushVar() : S++);
    break;
  case Opcode::UnifyVariableY:
    ySlot(I.A) = Cell::ref(WriteMode ? St.pushVar() : S++);
    break;
  case Opcode::UnifyValueX:
    if (WriteMode)
      St.push(X[I.A]);
    else if (!absUnify(St, X[I.A], Cell::ref(S++)))
      failCurrent();
    break;
  case Opcode::UnifyValueY:
    if (WriteMode)
      St.push(ySlot(I.A));
    else if (!absUnify(St, ySlot(I.A), Cell::ref(S++)))
      failCurrent();
    break;
  case Opcode::UnifyConst: {
    const ConstOperand &C = Module.constAt(I.A);
    Cell K = C.K == ConstOperand::IntK ? Cell::integer(C.Int)
                                       : Cell::atom(C.Name);
    if (WriteMode)
      St.push(K);
    else if (!absUnify(St, Cell::ref(S++), K))
      failCurrent();
    break;
  }
  case Opcode::UnifyVoid:
    if (WriteMode)
      for (int32_t N = 0; N != I.A; ++N)
        St.pushVar();
    else
      S += I.A;
    break;

  // ---- Procedural / control -------------------------------------------
  case Opcode::Allocate: {
    EnvFrame Env;
    Env.PrevE = E;
    Env.SavedCP = CP;
    Env.Y.resize(I.A);
    Envs.push_back(std::move(Env));
    E = static_cast<int64_t>(Envs.size()) - 1;
    break;
  }
  case Opcode::Deallocate:
    CP = Envs[E].SavedCP;
    E = Envs[E].PrevE;
    break;
  case Opcode::Call:
    doCall(I.A, P);
    break;
  case Opcode::Execute:
    // Reverted to call followed by proceed (paper Section 5): the
    // continuation is the module's synthetic Proceed instruction.
    doCall(I.A, kProceedAddress);
    break;
  case Opcode::Proceed:
    clauseSucceeded();
    break;
  case Opcode::Fail:
    failCurrent();
    break;

  // Cut is ignored during analysis (sound over-approximation).
  case Opcode::NeckCut:
  case Opcode::GetLevel:
  case Opcode::CutY:
    break;

  case Opcode::Builtin:
    if (!runAbsBuiltin(I.A, I.B))
      failCurrent();
    break;

  // Clause selection lives in call/proceed; the indexing block is never
  // entered by the abstract machine.
  case Opcode::Try:
  case Opcode::Retry:
  case Opcode::Trust:
  case Opcode::Jump:
  case Opcode::SwitchOnTerm:
  case Opcode::SwitchOnConstant:
  case Opcode::SwitchOnStructure:
  // Specializer output is only ever run on the concrete machine; the
  // analyzer always reads the unspecialized module.
  case Opcode::GetListFused:
  case Opcode::GetStructureFused:
    machineError("indexing instruction reached the abstract machine");
    return false;
  }
  return true;
}

bool AbstractMachine::runAbsBuiltin(int Id, int Arity) {
  return applyAbsBuiltin(St, static_cast<BuiltinId>(Id),
                         std::span<const Cell>(X.data(), Arity));
}
