//===- wam/Machine.cpp - Concrete WAM execution loop ----------------------===//

#include "wam/Machine.h"

#include "support/Timer.h"

#include <algorithm>

using namespace awam;

namespace {
// Choice point slot offsets, relative to B + NArgs (see layout comment).
constexpr int CpE = 1;
constexpr int CpCP = 2;
constexpr int CpPrevB = 3;
constexpr int CpNext = 4;
constexpr int CpTrail = 5;
constexpr int CpHeap = 6;
constexpr int CpB0 = 7;
constexpr int CpExtra = 8; // slots beyond the saved argument registers
} // namespace

// Stack frame layouts:
//
//   Environment at E:
//     [E+0] Ctl(previous E)   [E+1] Ctl(saved CP)   [E+2] Ctl(N slots)
//     [E+3 .. E+2+N] Y slots
//
//   Choice point at B (NArgs = saved argument count, from the Try B field):
//     [B+0] Ctl(NArgs)  [B+1 .. B+NArgs] saved A registers
//     [B+NArgs+1] Ctl(E)      [B+NArgs+2] Ctl(CP)  [B+NArgs+3] Ctl(prev B)
//     [B+NArgs+4] Ctl(next clause PC)   [B+NArgs+5] Ctl(trail mark)
//     [B+NArgs+6] Ctl(heap top)         [B+NArgs+7] Ctl(B0)

Machine::Machine(const CompiledProgram &Program, MachineOptions Options)
    : Module(*Program.Module), Options(Options),
      X(std::max(Program.MaxXReg, 8)) {}

int64_t Machine::stackAllocBase() const {
  int64_t Top = 0;
  if (E >= 0)
    Top = std::max(Top, E + 3 + Stack[E + 2].V);
  if (B >= 0)
    Top = std::max(Top, B + Stack[B].V + CpExtra);
  return Top;
}

void Machine::machineError(std::string Message) {
  ErrorMsg = std::move(Message);
  HasError = true;
}

bool Machine::backtrack() {
  if (B < 0)
    return false;
  ++Stats.Backtracks;
  Stats.MaxHeapCells = std::max(Stats.MaxHeapCells, St.heapSize());
  Stats.MaxTrailEntries = std::max(Stats.MaxTrailEntries, St.trailSize());
  int64_t NArgs = Stack[B].V;
  for (int64_t I = 0; I != NArgs; ++I)
    X[I] = Stack[B + 1 + I];
  E = Stack[B + NArgs + CpE].V;
  CP = static_cast<int32_t>(Stack[B + NArgs + CpCP].V);
  B0 = Stack[B + NArgs + CpB0].V;
  St.unwind(Stack[B + NArgs + CpTrail].V);
  St.truncate(Stack[B + NArgs + CpHeap].V);
  P = static_cast<int32_t>(Stack[B + NArgs + CpNext].V);
  // B itself is popped by Trust; Retry keeps it.
  return true;
}

bool Machine::unify(Cell A, Cell B_) {
  std::vector<std::pair<Cell, Cell>> &Work = UnifyWork;
  // Compound pairs already scheduled: revisiting one means a cyclic
  // (rational) term; it unifies coinductively instead of looping.
  UnifySeen.clear();
  Work.clear();
  Work.emplace_back(A, B_);
  while (!Work.empty()) {
    auto [CA, CB] = Work.back();
    Work.pop_back();
    DerefResult DA = St.deref(CA);
    DerefResult DB = St.deref(CB);
    if (DA.Addr != kNoAddr && DA.Addr == DB.Addr)
      continue;
    assert(DA.C.T != Tag::Abs && DB.C.T != Tag::Abs &&
           "abstract cell reached the concrete machine");
    bool AVar = DA.C.T == Tag::Ref;
    bool BVar = DB.C.T == Tag::Ref;
    if (AVar && BVar) {
      // Bind the younger cell to the older one (safe under heap truncation).
      if (DA.Addr < DB.Addr)
        St.bind(DB.Addr, Cell::ref(DA.Addr));
      else
        St.bind(DA.Addr, Cell::ref(DB.Addr));
      continue;
    }
    if (AVar) {
      St.bind(DA.Addr, DB.C);
      continue;
    }
    if (BVar) {
      St.bind(DB.Addr, DA.C);
      continue;
    }
    if (DA.C.T != DB.C.T)
      return false;
    if ((DA.C.T == Tag::Lis || DA.C.T == Tag::Str) &&
        !UnifySeen.insert(DA.Addr, DB.Addr))
      continue;
    switch (DA.C.T) {
    case Tag::Con:
    case Tag::Int:
      if (DA.C.V != DB.C.V)
        return false;
      break;
    case Tag::Lis:
      Work.emplace_back(Cell::ref(DA.C.V), Cell::ref(DB.C.V));
      Work.emplace_back(Cell::ref(DA.C.V + 1), Cell::ref(DB.C.V + 1));
      break;
    case Tag::Str: {
      const Cell &FA = St.at(DA.C.V);
      const Cell &FB = St.at(DB.C.V);
      if (FA.V != FB.V || FA.funArity() != FB.funArity())
        return false;
      for (int I = 1; I <= FA.funArity(); ++I)
        Work.emplace_back(Cell::ref(DA.C.V + I), Cell::ref(DB.C.V + I));
      break;
    }
    default:
      return false;
    }
  }
  return true;
}

/// One unify_* instruction in the current read/write mode. Shared by the
/// dispatch loop and the fused get handlers (which run their inline
/// operand words through here without per-instruction dispatch). Returns
/// false when the caller must fail().
bool Machine::execUnifyOp(const Instruction &I) {
  switch (I.Op) {
  case Opcode::UnifyVariableX:
    if (WriteMode)
      X[I.A] = Cell::ref(St.pushVar());
    else
      X[I.A] = Cell::ref(S++);
    return true;
  case Opcode::UnifyVariableY:
    if (WriteMode)
      ySlot(I.A) = Cell::ref(St.pushVar());
    else
      ySlot(I.A) = Cell::ref(S++);
    return true;
  case Opcode::UnifyValueX:
    if (WriteMode) {
      St.push(X[I.A]);
      return true;
    }
    return unify(X[I.A], Cell::ref(S++));
  case Opcode::UnifyValueY:
    if (WriteMode) {
      St.push(ySlot(I.A));
      return true;
    }
    return unify(ySlot(I.A), Cell::ref(S++));
  case Opcode::UnifyConst: {
    const ConstOperand &C = Module.constAt(I.A);
    Cell K = C.K == ConstOperand::IntK ? Cell::integer(C.Int)
                                       : Cell::atom(C.Name);
    if (WriteMode) {
      St.push(K);
      return true;
    }
    DerefResult D = St.deref(Cell::ref(S++));
    if (D.C.T == Tag::Ref) {
      St.bind(D.Addr, K);
      return true;
    }
    return D.C.T == K.T && D.C.V == K.V;
  }
  case Opcode::UnifyVoid:
    if (WriteMode)
      for (int32_t N = 0; N != I.A; ++N)
        St.pushVar();
    else
      S += I.A;
    return true;
  default:
    machineError("non-unify operand word in a fused block");
    return false;
  }
}

RunStatus Machine::runLoop() {
  for (;;) {
    if (HasError)
      return RunStatus::Error;
    if (Halt)
      return RunStatus::Halted;
    if (Failed) {
      Failed = false;
      if (!backtrack())
        return RunStatus::Failure;
      continue;
    }
    if (++Steps > Options.MaxSteps) {
      machineError("instruction budget exceeded");
      return RunStatus::Error;
    }
    if (St.heapSize() > Options.MaxHeapCells) {
      machineError("heap budget exceeded");
      return RunStatus::Error;
    }

    Instruction I = Module.at(P++);
    switch (I.Op) {
    case Opcode::Halt:
      return RunStatus::Success;

    // ---- Get instructions -------------------------------------------
    case Opcode::GetVariableX:
      X[I.A] = X[I.B];
      break;
    case Opcode::GetVariableY:
      ySlot(I.A) = X[I.B];
      break;
    case Opcode::GetValueX:
      if (!unify(X[I.A], X[I.B]))
        fail();
      break;
    case Opcode::GetValueY:
      if (!unify(ySlot(I.A), X[I.B]))
        fail();
      break;
    case Opcode::GetConst: {
      const ConstOperand &C = Module.constAt(I.A);
      Cell K = C.K == ConstOperand::IntK ? Cell::integer(C.Int)
                                         : Cell::atom(C.Name);
      DerefResult D = St.deref(X[I.B]);
      if (D.C.T == Tag::Ref) {
        if (I.Flags & specflag::KnownFree)
          ++Stats.FastPathHits;
        St.bind(D.Addr, K);
      } else if (D.C.T != K.T || D.C.V != K.V) {
        fail();
      } else if (I.Flags & specflag::KnownNonvar) {
        ++Stats.FastPathHits;
      }
      break;
    }
    case Opcode::GetList: {
      DerefResult D = St.deref(X[I.A]);
      if (D.C.T == Tag::Ref) {
        if (I.Flags & specflag::KnownFree)
          ++Stats.FastPathHits;
        St.bind(D.Addr, Cell::lis(St.heapTop()));
        WriteMode = true;
      } else if (D.C.T == Tag::Lis) {
        if (I.Flags & specflag::KnownNonvar)
          ++Stats.FastPathHits;
        S = D.C.V;
        WriteMode = false;
      } else {
        fail();
      }
      break;
    }
    case Opcode::GetStructure: {
      const FunctorArity &F = Module.functorAt(I.A);
      DerefResult D = St.deref(X[I.B]);
      if (D.C.T == Tag::Ref) {
        if (I.Flags & specflag::KnownFree)
          ++Stats.FastPathHits;
        int64_t FunAddr = St.push(Cell::fun(F.Name, F.Arity));
        St.bind(D.Addr, Cell::str(FunAddr));
        WriteMode = true;
      } else if (D.C.T == Tag::Str) {
        const Cell &FC = St.at(D.C.V);
        if (FC.V != F.Name || FC.funArity() != F.Arity) {
          fail();
          break;
        }
        if (I.Flags & specflag::KnownNonvar)
          ++Stats.FastPathHits;
        S = D.C.V + 1;
        WriteMode = false;
      } else {
        fail();
      }
      break;
    }
    case Opcode::GetListFused: {
      // Specialized form: get_list A[A] plus the I.B unify operand words
      // that follow, all under one dispatch. Semantics are exactly the
      // unfused sequence; a failure mid-block just backtracks (the choice
      // point restores P, so the skipped operands don't matter).
      DerefResult D = St.deref(X[I.A]);
      if (D.C.T == Tag::Ref) {
        if (I.Flags & specflag::KnownFree)
          ++Stats.FastPathHits;
        St.bind(D.Addr, Cell::lis(St.heapTop()));
        WriteMode = true;
      } else if (D.C.T == Tag::Lis) {
        if (I.Flags & specflag::KnownNonvar)
          ++Stats.FastPathHits;
        S = D.C.V;
        WriteMode = false;
      } else {
        fail();
        break;
      }
      for (int32_t End = P + I.B; P != End; )
        if (!execUnifyOp(Module.at(P++))) {
          fail();
          break;
        }
      break;
    }
    case Opcode::GetStructureFused: {
      // Specialized form: get_structure pool A against A[B] plus the I.C
      // following unify operand words under one dispatch.
      const FunctorArity &F = Module.functorAt(I.A);
      DerefResult D = St.deref(X[I.B]);
      if (D.C.T == Tag::Ref) {
        if (I.Flags & specflag::KnownFree)
          ++Stats.FastPathHits;
        int64_t FunAddr = St.push(Cell::fun(F.Name, F.Arity));
        St.bind(D.Addr, Cell::str(FunAddr));
        WriteMode = true;
      } else if (D.C.T == Tag::Str) {
        const Cell &FC = St.at(D.C.V);
        if (FC.V != F.Name || FC.funArity() != F.Arity) {
          fail();
          break;
        }
        if (I.Flags & specflag::KnownNonvar)
          ++Stats.FastPathHits;
        S = D.C.V + 1;
        WriteMode = false;
      } else {
        fail();
        break;
      }
      for (int32_t End = P + I.C; P != End; )
        if (!execUnifyOp(Module.at(P++))) {
          fail();
          break;
        }
      break;
    }

    // ---- Put instructions -------------------------------------------
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
      const FunctorArity &F = Module.functorAt(I.A);
      int64_t FunAddr = St.push(Cell::fun(F.Name, F.Arity));
      X[I.B] = Cell::str(FunAddr);
      WriteMode = true;
      break;
    }

    // ---- Unify instructions -----------------------------------------
    case Opcode::UnifyVariableX:
    case Opcode::UnifyVariableY:
    case Opcode::UnifyValueX:
    case Opcode::UnifyValueY:
    case Opcode::UnifyConst:
    case Opcode::UnifyVoid:
      if (!execUnifyOp(I))
        fail();
      break;

    // ---- Procedural instructions ------------------------------------
    case Opcode::Allocate: {
      int64_t NewE = stackAllocBase();
      if (Stack.size() < static_cast<size_t>(NewE + 3 + I.A))
        Stack.resize(NewE + 3 + I.A);
      Stack[NewE] = Cell::ctl(E);
      Stack[NewE + 1] = Cell::ctl(CP);
      Stack[NewE + 2] = Cell::ctl(I.A);
      E = NewE;
      ++Stats.Environments;
      Stats.MaxStackSlots = std::max(Stats.MaxStackSlots, Stack.size());
      break;
    }
    case Opcode::Deallocate:
      CP = static_cast<int32_t>(Stack[E + 1].V);
      E = Stack[E].V;
      break;
    case Opcode::Call: {
      const PredicateInfo &Pred = Module.predicate(I.A);
      CP = P;
      B0 = B;
      if (Pred.IndexEntry == kFailTarget) {
        fail(); // undefined predicate
        break;
      }
      P = Pred.IndexEntry;
      break;
    }
    case Opcode::Execute: {
      const PredicateInfo &Pred = Module.predicate(I.A);
      B0 = B;
      if (Pred.IndexEntry == kFailTarget) {
        fail();
        break;
      }
      P = Pred.IndexEntry;
      break;
    }
    case Opcode::Proceed:
      P = CP;
      break;

    // ---- Indexing instructions --------------------------------------
    case Opcode::Try: {
      int64_t NArgs = I.B;
      int64_t NewB = stackAllocBase();
      if (Stack.size() < static_cast<size_t>(NewB + NArgs + CpExtra))
        Stack.resize(NewB + NArgs + CpExtra);
      Stack[NewB] = Cell::ctl(NArgs);
      for (int64_t K = 0; K != NArgs; ++K)
        Stack[NewB + 1 + K] = X[K];
      Stack[NewB + NArgs + CpE] = Cell::ctl(E);
      Stack[NewB + NArgs + CpCP] = Cell::ctl(CP);
      Stack[NewB + NArgs + CpPrevB] = Cell::ctl(B);
      Stack[NewB + NArgs + CpNext] = Cell::ctl(P); // following retry/trust
      Stack[NewB + NArgs + CpTrail] = Cell::ctl(St.trailMark());
      Stack[NewB + NArgs + CpHeap] = Cell::ctl(St.heapTop());
      Stack[NewB + NArgs + CpB0] = Cell::ctl(B0);
      B = NewB;
      P = I.A;
      ++Stats.ChoicePoints;
      Stats.MaxStackSlots = std::max(Stats.MaxStackSlots, Stack.size());
      break;
    }
    case Opcode::Retry: {
      int64_t NArgs = Stack[B].V;
      Stack[B + NArgs + CpNext] = Cell::ctl(P); // next alternative
      P = I.A;
      break;
    }
    case Opcode::Trust: {
      int64_t NArgs = Stack[B].V;
      B = Stack[B + NArgs + CpPrevB].V;
      P = I.A;
      break;
    }
    case Opcode::Jump:
      P = I.A;
      break;
    case Opcode::Fail:
      fail();
      break;
    case Opcode::SwitchOnTerm: {
      const TermSwitch &SW = Module.termSwitchAt(I.A);
      DerefResult D = St.deref(X[0]);
      int32_t Target = kFailTarget;
      switch (D.C.T) {
      case Tag::Ref: Target = SW.OnVar; break;
      case Tag::Con:
      case Tag::Int: Target = SW.OnConst; break;
      case Tag::Lis: Target = SW.OnList; break;
      case Tag::Str: Target = SW.OnStruct; break;
      default:
        machineError("switch_on_term on non-term cell");
        break;
      }
      if (Target == kFailTarget)
        fail();
      else
        P = Target;
      break;
    }
    case Opcode::SwitchOnConstant: {
      const ValueSwitch &SW = Module.valueSwitchAt(I.A);
      DerefResult D = St.deref(X[0]);
      int32_t Target = SW.Default;
      for (auto [Key, Addr] : SW.Cases) {
        const ConstOperand &C = Module.constAt(Key);
        bool Match = C.K == ConstOperand::IntK
                         ? (D.C.T == Tag::Int && D.C.V == C.Int)
                         : (D.C.T == Tag::Con &&
                            D.C.V == static_cast<int64_t>(C.Name));
        if (Match) {
          Target = Addr;
          break;
        }
      }
      if (Target == kFailTarget)
        fail();
      else
        P = Target;
      break;
    }
    case Opcode::SwitchOnStructure: {
      const ValueSwitch &SW = Module.valueSwitchAt(I.A);
      DerefResult D = St.deref(X[0]);
      assert(D.C.T == Tag::Str && "switch_on_structure on non-structure");
      const Cell &FC = St.at(D.C.V);
      int32_t Target = SW.Default;
      for (auto [Key, Addr] : SW.Cases) {
        const FunctorArity &F = Module.functorAt(Key);
        if (FC.V == static_cast<int64_t>(F.Name) &&
            FC.funArity() == F.Arity) {
          Target = Addr;
          break;
        }
      }
      if (Target == kFailTarget)
        fail();
      else
        P = Target;
      break;
    }

    // ---- Cut ---------------------------------------------------------
    case Opcode::NeckCut:
      if (B > B0)
        B = B0;
      break;
    case Opcode::GetLevel:
      ySlot(I.A) = Cell::ctl(B0);
      break;
    case Opcode::CutY: {
      int64_t Barrier = ySlot(I.A).V;
      if (B > Barrier)
        B = Barrier;
      break;
    }

    // ---- Builtins ----------------------------------------------------
    case Opcode::Builtin:
      if (!runBuiltin(I.A, I.B))
        fail();
      break;
    }
  }
}

RunStatus Machine::solve(const Term *Goal, int NumGoalVars, TermArena &Arena,
                         std::vector<Solution> &SolutionsOut,
                         int MaxSolutions) {
  Timer Wall;
  RunStatus Status = solveImpl(Goal, NumGoalVars, Arena, SolutionsOut,
                               MaxSolutions);
  Stats.WallMs = Wall.elapsedMs();
  return Status;
}

RunStatus Machine::solveImpl(const Term *Goal, int NumGoalVars,
                             TermArena &Arena,
                             std::vector<Solution> &SolutionsOut,
                             int MaxSolutions) {
  // Reset all dynamic state.
  St.reset();
  Stack.clear();
  std::fill(X.begin(), X.end(), Cell());
  P = 0;
  CP = 0;
  E = -1;
  B = -1;
  B0 = -1;
  S = 0;
  WriteMode = false;
  Failed = false;
  Halt = false;
  HasError = false;
  Steps = 0;
  Stats = MachineStats();
  Out.clear();
  ErrorMsg.clear();

  if (!Goal->isCallable()) {
    machineError("goal is not callable");
    return RunStatus::Error;
  }
  int Arity = Goal->isStruct() ? Goal->arity() : 0;
  int32_t Pid = Module.findPredicate(Goal->functor(), Arity);
  if (Pid < 0 || Module.predicate(Pid).IndexEntry == kFailTarget)
    return RunStatus::Failure;

  // Build goal arguments on the heap; remember query variable addresses.
  std::unordered_map<int, int64_t> VarAddrs;
  for (int I = 0; I != Arity; ++I)
    X[I] = Cell::ref(St.buildTerm(Goal->arg(I), VarAddrs));

  CP = 0; // address 0 is the Halt instruction
  P = Module.predicate(Pid).IndexEntry;

  for (;;) {
    RunStatus Status = runLoop();
    if (Status != RunStatus::Success)
      return SolutionsOut.empty() ? Status : RunStatus::Success;

    Solution Sol;
    Sol.Bindings.resize(NumGoalVars, nullptr);
    for (auto [VarId, Addr] : VarAddrs)
      Sol.Bindings[VarId] =
          St.readTerm(Cell::ref(Addr), Arena, Module.symbols());
    SolutionsOut.push_back(std::move(Sol));

    if (static_cast<int>(SolutionsOut.size()) >= MaxSolutions)
      return RunStatus::Success;
    if (!backtrack())
      return RunStatus::Success;
  }
}

bool Machine::proves(const Term *Goal, int NumGoalVars) {
  TermArena Arena;
  std::vector<Solution> Sols;
  return solve(Goal, NumGoalVars, Arena, Sols, 1) == RunStatus::Success;
}
