//===- compiler/ClauseCompiler.cpp ----------------------------------------===//

#include "compiler/ClauseCompiler.h"

#include "compiler/Builtins.h"

using namespace awam;

namespace {

/// How one clause goal is compiled.
enum class GoalKind : uint8_t { UserCall, BuiltinCall, Cut, FailGoal };

/// One body goal's classification.
struct GoalInfo {
  GoalKind Kind;
  BuiltinId Builtin; ///< for BuiltinCall
};

/// Per-variable classification computed before code emission.
struct VarInfo {
  int Occurrences = 0;
  int FirstChunk = -1;
  int LastChunk = -1;
  bool Permanent = false;
  int Reg = -1;       // Y index if permanent, X index if temporary
  bool Seen = false;  // first occurrence already emitted?
};

/// buildTerm's record of a structure whose nested structures are being
/// built: the next argument to visit and where its children's registers
/// start in ChildRegs.
struct BuildFrame {
  const Term *T;
  int NextArg;
  size_t RegsBase;
};

} // namespace

/// Working storage kept from one clause to the next, so that compiling a
/// program does not allocate per clause. The term walks use explicit
/// stacks and queues from here, so stack depth does not grow with term
/// size.
struct ClauseCompiler::Scratch {
  std::vector<VarInfo> Vars;
  std::vector<GoalInfo> Goals;
  /// scanTerm's pending subterms.
  std::vector<const Term *> ScanStack;
  /// emitGetUnifySequence's FIFO of (structure, register), consumed front
  /// to back by index.
  std::vector<std::pair<const Term *, int>> Queue;
  /// buildTerm's structures under construction, and their children's
  /// registers by argument.
  std::vector<BuildFrame> BuildStack;
  std::vector<int> ChildRegs;
};

namespace {

class ClauseContext {
public:
  ClauseContext(const ParsedClause &Clause, CodeModule &Module,
                ClauseCompiler::Scratch &Work)
      : Clause(Clause), Module(Module), Syms(Module.symbols()),
        Vars(Work.Vars), Goals(Work.Goals), ScanStack(Work.ScanStack),
        Queue(Work.Queue), BuildStack(Work.BuildStack),
        ChildRegs(Work.ChildRegs) {
    Vars.assign(Clause.NumVars, VarInfo());
    Goals.clear();
  }

  Result<CompiledClause> run();

private:
  // Analysis.
  void classifyGoals();
  void scanTerm(const Term *T, int Chunk);
  void classifyVariables();

  // Emission.
  void emitHead();
  void emitHeadArg(const Term *Arg, int ArgReg);
  int32_t emitGetUnifySequence(const Term *T, int Reg);
  void emitUnifyChildren(const Term *T);
  Result<bool> emitBody();
  void emitCallArgs(const Term *Goal);
  void emitCallArg(const Term *Arg, int ArgReg);
  int buildTerm(const Term *T);
  int emitBuiltStructure(const Term *T, const int *ArgRegs);
  void emitUnifyVar(const Term *Var);
  bool flushVoids(int &Pending);

  int freshTemp() { return NextTemp++; }
  int32_t constIndex(const Term *T) {
    if (T->isInt())
      return Module.internConst(ConstOperand::integer(T->intValue()));
    return Module.internConst(ConstOperand::atom(T->functor()));
  }
  int32_t functorIndex(const Term *T) {
    return Module.internFunctor(
        {T->functor(), static_cast<int32_t>(T->arity())});
  }
  VarInfo &info(const Term *V) { return Vars[V->varId()]; }

  const ParsedClause &Clause;
  CodeModule &Module;
  SymbolTable &Syms;
  std::vector<VarInfo> &Vars;
  std::vector<GoalInfo> &Goals;
  std::vector<const Term *> &ScanStack;
  std::vector<std::pair<const Term *, int>> &Queue;
  std::vector<BuildFrame> &BuildStack;
  std::vector<int> &ChildRegs;
  int NumUserCalls = 0;
  int FirstUserCallGoal = -1; // goal index of first user call
  bool HasDeepCut = false;
  bool NeedsEnv = false;
  int NumPermanent = 0;
  int CutSlot = -1;
  int NextTemp = 0;
  int32_t FirstArgKey = -1;
};

void ClauseContext::classifyGoals() {
  Goals.reserve(Clause.Body.size());
  for (size_t I = 0; I != Clause.Body.size(); ++I) {
    const Term *G = Clause.Body[I];
    if (G->isAtom() && G->functor() == SymbolTable::SymCut) {
      Goals.push_back({GoalKind::Cut, BuiltinId::NumBuiltins});
      if (FirstUserCallGoal >= 0)
        HasDeepCut = true;
      continue;
    }
    if (G->isAtom() && G->functor() == SymbolTable::SymFail) {
      Goals.push_back({GoalKind::FailGoal, BuiltinId::NumBuiltins});
      continue;
    }
    if (G->isCallable())
      if (std::optional<BuiltinId> Id =
              lookupBuiltin(Syms.name(G->functor()), G->arity())) {
        Goals.push_back({GoalKind::BuiltinCall, *Id});
        continue;
      }
    Goals.push_back({GoalKind::UserCall, BuiltinId::NumBuiltins});
    if (FirstUserCallGoal < 0)
      FirstUserCallGoal = static_cast<int>(I);
    ++NumUserCalls;
  }
}

void ClauseContext::scanTerm(const Term *T, int Chunk) {
  // Visit order does not matter: every occurrence is in the same chunk.
  // Only structures wait on the stack; leaves are handled as they are met.
  auto visit = [&](const Term *Cur) {
    if (Cur->isStruct()) {
      ScanStack.push_back(Cur);
    } else if (Cur->isVar()) {
      VarInfo &VI = info(Cur);
      ++VI.Occurrences;
      if (VI.FirstChunk < 0)
        VI.FirstChunk = Chunk;
      VI.LastChunk = Chunk;
    }
  };
  ScanStack.clear();
  visit(T);
  while (!ScanStack.empty()) {
    const Term *Cur = ScanStack.back();
    ScanStack.pop_back();
    for (const Term *Arg : Cur->args())
      visit(Arg);
  }
}

void ClauseContext::classifyVariables() {
  // Chunk 0 is the head plus all goals up to and including the first user
  // call; each later user call starts a new chunk. Builtins and cut extend
  // the current chunk.
  scanTerm(Clause.Head, 0);
  int Chunk = 0;
  for (size_t I = 0; I != Clause.Body.size(); ++I) {
    scanTerm(Clause.Body[I], Chunk);
    if (Goals[I].Kind == GoalKind::UserCall)
      ++Chunk;
  }
  for (VarInfo &VI : Vars)
    if (VI.FirstChunk >= 0 && VI.FirstChunk != VI.LastChunk) {
      VI.Permanent = true;
      VI.Reg = NumPermanent++;
    }

  int LastUserCallGoal = -1;
  for (size_t I = 0; I != Goals.size(); ++I)
    if (Goals[I].Kind == GoalKind::UserCall)
      LastUserCallGoal = static_cast<int>(I);
  bool CodeAfterCall =
      NumUserCalls >= 2 ||
      (LastUserCallGoal >= 0 &&
       LastUserCallGoal + 1 != static_cast<int>(Goals.size()));
  NeedsEnv = NumPermanent > 0 || CodeAfterCall || HasDeepCut;
  if (HasDeepCut)
    CutSlot = NumPermanent++;
}

void ClauseContext::emitHead() {
  for (int I = 0, E = Clause.Head->isStruct() ? Clause.Head->arity() : 0;
       I != E; ++I)
    emitHeadArg(Clause.Head->arg(I), I);
}

void ClauseContext::emitHeadArg(const Term *Arg, int ArgReg) {
  switch (Arg->kind()) {
  case TermKind::Var: {
    VarInfo &VI = info(Arg);
    if (VI.Occurrences == 1)
      return; // void argument: nothing to do
    if (VI.Permanent) {
      Module.emit({VI.Seen ? Opcode::GetValueY : Opcode::GetVariableY,
                   VI.Reg, ArgReg});
    } else {
      if (!VI.Seen)
        VI.Reg = freshTemp();
      Module.emit({VI.Seen ? Opcode::GetValueX : Opcode::GetVariableX,
                   VI.Reg, ArgReg});
    }
    VI.Seen = true;
    return;
  }
  case TermKind::Int:
  case TermKind::Atom: {
    int32_t Key = constIndex(Arg);
    if (ArgReg == 0)
      FirstArgKey = Key;
    Module.emit({Opcode::GetConst, Key, ArgReg});
    return;
  }
  case TermKind::Struct: {
    int32_t Key = emitGetUnifySequence(Arg, ArgReg);
    if (ArgReg == 0)
      FirstArgKey = Key;
    return;
  }
  }
}

/// Emits the breadth-first get/unify sequence for a nested structure in the
/// head, exactly in the style of the paper's Figure 2. Returns the functor
/// pool index of \p T, or -1 for a list cell.
int32_t ClauseContext::emitGetUnifySequence(const Term *T, int Reg) {
  int32_t Key = -1;
  Queue.assign(1, {T, Reg});
  for (size_t QueueHead = 0; QueueHead != Queue.size(); ++QueueHead) {
    auto [Cur, CurReg] = Queue[QueueHead]; // a copy: emitting appends
    if (Cur->isCons()) {
      Module.emit({Opcode::GetList, CurReg, 0});
    } else {
      int32_t F = functorIndex(Cur);
      if (QueueHead == 0)
        Key = F;
      Module.emit({Opcode::GetStructure, F, CurReg});
    }
    emitUnifyChildren(Cur);
  }
  return Key;
}

/// Emits the unify_* sequence for the immediate children of \p T, queueing
/// nested structures for later get_list/get_structure processing.
void ClauseContext::emitUnifyChildren(const Term *T) {
  int PendingVoids = 0;
  for (const Term *Child : T->args()) {
    switch (Child->kind()) {
    case TermKind::Var: {
      VarInfo &VI = info(Child);
      if (VI.Occurrences == 1) {
        ++PendingVoids;
        continue;
      }
      flushVoids(PendingVoids);
      emitUnifyVar(Child);
      continue;
    }
    case TermKind::Int:
    case TermKind::Atom:
      flushVoids(PendingVoids);
      Module.emit({Opcode::UnifyConst, constIndex(Child), 0});
      continue;
    case TermKind::Struct: {
      flushVoids(PendingVoids);
      int Temp = freshTemp();
      Module.emit({Opcode::UnifyVariableX, Temp, 0});
      Queue.emplace_back(Child, Temp);
      continue;
    }
    }
  }
  flushVoids(PendingVoids);
}

bool ClauseContext::flushVoids(int &Pending) {
  if (Pending == 0)
    return false;
  Module.emit({Opcode::UnifyVoid, Pending, 0});
  Pending = 0;
  return true;
}

void ClauseContext::emitUnifyVar(const Term *Var) {
  VarInfo &VI = info(Var);
  if (VI.Permanent) {
    Module.emit(
        {VI.Seen ? Opcode::UnifyValueY : Opcode::UnifyVariableY, VI.Reg, 0});
  } else {
    if (!VI.Seen)
      VI.Reg = freshTemp();
    Module.emit(
        {VI.Seen ? Opcode::UnifyValueX : Opcode::UnifyVariableX, VI.Reg, 0});
  }
  VI.Seen = true;
}

/// Loads the arguments of \p Goal into A0..An-1.
void ClauseContext::emitCallArgs(const Term *Goal) {
  for (int I = 0, E = Goal->isStruct() ? Goal->arity() : 0; I != E; ++I)
    emitCallArg(Goal->arg(I), I);
}

void ClauseContext::emitCallArg(const Term *Arg, int ArgReg) {
  switch (Arg->kind()) {
  case TermKind::Var: {
    VarInfo &VI = info(Arg);
    if (VI.Permanent) {
      Module.emit({VI.Seen ? Opcode::PutValueY : Opcode::PutVariableY,
                   VI.Reg, ArgReg});
      VI.Seen = true;
      return;
    }
    if (VI.Occurrences == 1) {
      Module.emit({Opcode::PutVariableX, freshTemp(), ArgReg});
      return;
    }
    if (!VI.Seen)
      VI.Reg = freshTemp();
    Module.emit({VI.Seen ? Opcode::PutValueX : Opcode::PutVariableX, VI.Reg,
                 ArgReg});
    VI.Seen = true;
    return;
  }
  case TermKind::Int:
  case TermKind::Atom:
    Module.emit({Opcode::PutConst, constIndex(Arg), ArgReg});
    return;
  case TermKind::Struct: {
    int Temp = buildTerm(Arg);
    Module.emit({Opcode::PutValueX, Temp, ArgReg});
    return;
  }
  }
}

/// Builds structure \p Root on the heap bottom-up and returns the X
/// register holding it. The walk is post-order on an explicit stack:
/// nested structures are built first, left to right, so their registers
/// are ready, and registers are numbered as a recursive walk would.
int ClauseContext::buildTerm(const Term *Root) {
  BuildStack.clear();
  ChildRegs.clear();
  auto enter = [&](const Term *T) {
    BuildStack.push_back({T, 0, ChildRegs.size()});
    ChildRegs.resize(ChildRegs.size() + T->arity(), -1);
  };
  enter(Root);
  for (;;) {
    BuildFrame &F = BuildStack.back();
    if (F.NextArg != F.T->arity()) {
      const Term *Child = F.T->arg(F.NextArg++);
      if (Child->isStruct())
        enter(Child); // invalidates F
      continue;
    }
    int Reg = emitBuiltStructure(F.T, ChildRegs.data() + F.RegsBase);
    ChildRegs.resize(F.RegsBase);
    BuildStack.pop_back();
    if (BuildStack.empty())
      return Reg;
    const BuildFrame &Parent = BuildStack.back();
    ChildRegs[Parent.RegsBase + Parent.NextArg - 1] = Reg;
  }
}

/// Emits put_list/put_structure for \p T and its unify_* sequence, with
/// its nested structures already built in \p ArgRegs (by argument).
int ClauseContext::emitBuiltStructure(const Term *T, const int *ArgRegs) {
  int Reg = freshTemp();
  if (T->isCons())
    Module.emit({Opcode::PutList, Reg, 0});
  else
    Module.emit({Opcode::PutStructure, functorIndex(T), Reg});

  int PendingVoids = 0;
  for (int I = 0, E = T->arity(); I != E; ++I) {
    const Term *Child = T->arg(I);
    switch (Child->kind()) {
    case TermKind::Var: {
      VarInfo &VI = info(Child);
      if (VI.Occurrences == 1) {
        ++PendingVoids;
        continue;
      }
      flushVoids(PendingVoids);
      emitUnifyVar(Child);
      continue;
    }
    case TermKind::Int:
    case TermKind::Atom:
      flushVoids(PendingVoids);
      Module.emit({Opcode::UnifyConst, constIndex(Child), 0});
      continue;
    case TermKind::Struct:
      flushVoids(PendingVoids);
      Module.emit({Opcode::UnifyValueX, ArgRegs[I], 0});
      continue;
    }
  }
  flushVoids(PendingVoids);
  return Reg;
}

Result<bool> ClauseContext::emitBody() {
  for (size_t I = 0, E = Clause.Body.size(); I != E; ++I) {
    const Term *G = Clause.Body[I];
    bool IsLast = I + 1 == E;
    switch (Goals[I].Kind) {
    case GoalKind::Cut:
      if (FirstUserCallGoal >= 0 && static_cast<int>(I) > FirstUserCallGoal)
        Module.emit({Opcode::CutY, CutSlot, 0});
      else
        Module.emit({Opcode::NeckCut, 0, 0});
      break;
    case GoalKind::FailGoal:
      Module.emit({Opcode::Fail, 0, 0});
      return true; // code after fail is unreachable
    case GoalKind::BuiltinCall:
      emitCallArgs(G);
      Module.emit({Opcode::Builtin, static_cast<int32_t>(Goals[I].Builtin),
                   G->isStruct() ? G->arity() : 0});
      break;
    case GoalKind::UserCall: {
      if (!G->isCallable())
        return makeError("body goal is not callable");
      std::string_view Name = Syms.name(G->functor());
      if (Name == ";" || Name == "->")
        return makeError(
            "disjunction/if-then-else is not supported; rewrite with "
            "auxiliary predicates");
      emitCallArgs(G);
      int32_t Pid = Module.predicateId(
          G->functor(), G->isStruct() ? G->arity() : 0);
      if (IsLast) {
        if (NeedsEnv)
          Module.emit({Opcode::Deallocate, 0, 0});
        Module.emit({Opcode::Execute, Pid, 0});
        return false; // clause return handled by execute
      }
      Module.emit({Opcode::Call, Pid, 0});
      break;
    }
    }
  }
  return true; // still need proceed
}

Result<CompiledClause> ClauseContext::run() {
  classifyGoals();
  classifyVariables();

  int Arity = Clause.Head->isStruct() ? Clause.Head->arity() : 0;
  int MaxGoalArity = 0;
  for (const Term *G : Clause.Body)
    if (G->isStruct())
      MaxGoalArity = std::max(MaxGoalArity, G->arity());
  NextTemp = std::max(Arity, MaxGoalArity);

  CompiledClause Out;
  Out.Info.Entry = Module.codeSize();

  if (NeedsEnv) {
    Module.emit({Opcode::Allocate, NumPermanent, 0});
    if (HasDeepCut)
      Module.emit({Opcode::GetLevel, CutSlot, 0});
  }
  emitHead();
  Result<bool> NeedsProceed = emitBody();
  if (!NeedsProceed)
    return NeedsProceed.diag();
  if (*NeedsProceed) {
    if (NeedsEnv)
      Module.emit({Opcode::Deallocate, 0, 0});
    Module.emit({Opcode::Proceed, 0, 0});
  }

  Out.Info.NumInstr = Module.codeSize() - Out.Info.Entry;
  Out.NumPermanent = NumPermanent;
  Out.MaxXUsed = NextTemp;
  Out.FirstArgKey = FirstArgKey;
  return Out;
}

} // namespace

ClauseCompiler::ClauseCompiler(CodeModule &Module)
    : Module(Module), Work(std::make_unique<Scratch>()) {}

ClauseCompiler::~ClauseCompiler() = default;

Result<CompiledClause> ClauseCompiler::compile(const ParsedClause &Clause) {
  return ClauseContext(Clause, Module, *Work).run();
}
