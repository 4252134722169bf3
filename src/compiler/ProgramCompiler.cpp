//===- compiler/ProgramCompiler.cpp ---------------------------------------===//

#include "compiler/ProgramCompiler.h"

#include "compiler/Builtins.h"
#include "compiler/ClauseCompiler.h"

#include <map>
#include <set>

using namespace awam;

namespace {

/// First-argument shape of a clause head, for indexing buckets.
enum class ArgShape { VarS, ConstS, ListS, StructS };

struct ClauseShape {
  ArgShape Shape = ArgShape::VarS;
  int32_t ConstKey = -1;   // constant pool index for ConstS
  int32_t FunctorKey = -1; // functor pool index for StructS
};

class ProgramContext {
public:
  ProgramContext(const ParsedProgram &Program, SymbolTable &Syms)
      : Program(Program), Syms(Syms) {
    Out.Module = std::make_unique<CodeModule>(Syms);
  }

  Result<CompiledProgram> run();

private:
  ClauseShape shapeOf(const Term *Head) const;
  int32_t emitChain(const std::vector<int32_t> &Entries, int32_t Arity);
  void buildIndexing(PredicateInfo &Pred,
                     const std::vector<ClauseShape> &Shapes);

  const ParsedProgram &Program;
  SymbolTable &Syms;
  CompiledProgram Out;
  std::map<std::vector<int32_t>, int32_t> ChainCache;
};

ClauseShape ProgramContext::shapeOf(const Term *Head) const {
  ClauseShape S;
  if (!Head->isStruct() || Head->arity() == 0)
    return S; // arity-0 predicates index as "var" (single bucket)
  const Term *A1 = Head->arg(0);
  CodeModule &M = *Out.Module;
  switch (A1->kind()) {
  case TermKind::Var:
    S.Shape = ArgShape::VarS;
    break;
  case TermKind::Int:
    S.Shape = ArgShape::ConstS;
    S.ConstKey = M.internConst(ConstOperand::integer(A1->intValue()));
    break;
  case TermKind::Atom:
    S.Shape = ArgShape::ConstS;
    S.ConstKey = M.internConst(ConstOperand::atom(A1->functor()));
    break;
  case TermKind::Struct:
    if (A1->isCons()) {
      S.Shape = ArgShape::ListS;
    } else {
      S.Shape = ArgShape::StructS;
      S.FunctorKey = M.internFunctor(
          {A1->functor(), static_cast<int32_t>(A1->arity())});
    }
    break;
  }
  return S;
}

/// Emits a try/retry/trust chain over clause entry points (or returns the
/// single entry / kFailTarget directly). Identical chains are shared.
int32_t ProgramContext::emitChain(const std::vector<int32_t> &Entries,
                                  int32_t Arity) {
  if (Entries.empty())
    return kFailTarget;
  if (Entries.size() == 1)
    return Entries[0];
  auto It = ChainCache.find(Entries);
  if (It != ChainCache.end())
    return It->second;
  CodeModule &M = *Out.Module;
  int32_t Addr = M.codeSize();
  // The Try B field is the number of argument registers the choice point
  // must save: the predicate's arity.
  M.emit({Opcode::Try, Entries.front(), Arity});
  for (size_t I = 1; I + 1 < Entries.size(); ++I)
    M.emit({Opcode::Retry, Entries[I], Arity});
  M.emit({Opcode::Trust, Entries.back(), Arity});
  ChainCache.emplace(Entries, Addr);
  return Addr;
}

void ProgramContext::buildIndexing(PredicateInfo &Pred,
                                   const std::vector<ClauseShape> &Shapes) {
  CodeModule &M = *Out.Module;
  size_t N = Pred.Clauses.size();
  int32_t Arity = Pred.Arity;
  assert(N == Shapes.size());

  std::vector<int32_t> All, Vars;
  for (size_t I = 0; I != N; ++I) {
    All.push_back(Pred.Clauses[I].Entry);
    if (Shapes[I].Shape == ArgShape::VarS)
      Vars.push_back(Pred.Clauses[I].Entry);
  }

  if (N == 1) {
    Pred.IndexEntry = All[0];
    return;
  }

  // Arity-0 predicates (or all-var first args) need no dispatch.
  bool AllVar = Vars.size() == N;
  if (AllVar) {
    Pred.IndexEntry = emitChain(All, Arity);
    return;
  }

  // Applicable-clause chain per constant key, preserving source order.
  auto bucketChain = [&](auto Matches) {
    std::vector<int32_t> Entries;
    for (size_t I = 0; I != N; ++I)
      if (Shapes[I].Shape == ArgShape::VarS || Matches(Shapes[I]))
        Entries.push_back(Pred.Clauses[I].Entry);
    return emitChain(Entries, Arity);
  };

  // List bucket.
  int32_t ListTarget = bucketChain(
      [](const ClauseShape &S) { return S.Shape == ArgShape::ListS; });

  // Constant buckets.
  std::set<int32_t> ConstKeys;
  for (const ClauseShape &S : Shapes)
    if (S.Shape == ArgShape::ConstS)
      ConstKeys.insert(S.ConstKey);
  int32_t ConstTarget;
  if (ConstKeys.empty()) {
    ConstTarget = emitChain(Vars, Arity);
  } else {
    ValueSwitch VS;
    VS.Default = emitChain(Vars, Arity);
    for (int32_t Key : ConstKeys)
      VS.Cases.emplace_back(Key, bucketChain([&](const ClauseShape &S) {
        return S.Shape == ArgShape::ConstS && S.ConstKey == Key;
      }));
    int32_t TableIdx = M.addValueSwitch(std::move(VS));
    ConstTarget = M.emit({Opcode::SwitchOnConstant, TableIdx, 0});
  }

  // Structure buckets.
  std::set<int32_t> FunctorKeys;
  for (const ClauseShape &S : Shapes)
    if (S.Shape == ArgShape::StructS)
      FunctorKeys.insert(S.FunctorKey);
  int32_t StructTarget;
  if (FunctorKeys.empty()) {
    StructTarget = emitChain(Vars, Arity);
  } else {
    ValueSwitch VS;
    VS.Default = emitChain(Vars, Arity);
    for (int32_t Key : FunctorKeys)
      VS.Cases.emplace_back(Key, bucketChain([&](const ClauseShape &S) {
        return S.Shape == ArgShape::StructS && S.FunctorKey == Key;
      }));
    int32_t TableIdx = M.addValueSwitch(std::move(VS));
    StructTarget = M.emit({Opcode::SwitchOnStructure, TableIdx, 0});
  }

  int32_t VarTarget = emitChain(All, Arity);
  int32_t SwitchIdx = M.addTermSwitch(
      {VarTarget, ConstTarget, ListTarget, StructTarget});
  Pred.IndexEntry = M.emit({Opcode::SwitchOnTerm, SwitchIdx, 0});
}

Result<CompiledProgram> ProgramContext::run() {
  CodeModule &M = *Out.Module;
  // Address 0: the machine's top-level continuation. Address 1: a lone
  // Proceed the abstract machine uses to revert `execute` to
  // call-followed-by-proceed (paper Section 5).
  M.emit({Opcode::Halt, 0, 0});
  M.emit({Opcode::Proceed, 0, 0});

  // Group clauses by predicate in one pass, preserving source order within
  // a predicate. Every head is interned before any clause is compiled, so
  // the defined predicates take ids 0..NumDefined-1 in order of first
  // definition; callees first seen while compiling come after them.
  const size_t N = Program.Clauses.size();
  std::vector<int32_t> PidOf(N);
  for (size_t I = 0; I != N; ++I) {
    const ParsedClause &C = Program.Clauses[I];
    Symbol Name = C.Head->functor();
    int Arity = C.Head->isStruct() ? C.Head->arity() : 0;
    const int32_t Known = M.numPredicates();
    PidOf[I] = M.predicateId(Name, Arity);
    if (PidOf[I] != Known)
      continue; // not the predicate's first clause
    if (lookupBuiltin(Syms.name(Name), Arity))
      return makeError("cannot redefine builtin " +
                       std::string(Syms.name(Name)) + "/" +
                       std::to_string(Arity));
    Out.NumArgs += Arity;
  }
  const int32_t NumDefined = M.numPredicates();
  Out.NumPreds = NumDefined;

  // Counting sort of the clauses by predicate: predicate Pid's clauses are
  // ByPred[First[Pid] .. First[Pid + 1]).
  std::vector<int32_t> First(NumDefined + 1, 0);
  for (int32_t Pid : PidOf)
    ++First[Pid + 1];
  for (int32_t Pid = 0; Pid != NumDefined; ++Pid)
    First[Pid + 1] += First[Pid];
  std::vector<const ParsedClause *> ByPred(N);
  {
    std::vector<int32_t> Next(First.begin(), First.end() - 1);
    for (size_t I = 0; I != N; ++I)
      ByPred[Next[PidOf[I]]++] = &Program.Clauses[I];
  }

  // Compile clause code blocks predicate by predicate. Note: compiling a
  // clause can intern new (callee) predicates, so never hold a
  // PredicateInfo reference across Clauses.compile.
  ClauseCompiler Clauses(M);
  for (int32_t Pid = 0; Pid != NumDefined; ++Pid) {
    std::vector<ClauseShape> Shapes;
    std::vector<ClauseInfo> Infos;
    for (int32_t K = First[Pid]; K != First[Pid + 1]; ++K) {
      const ParsedClause *C = ByPred[K];
      Result<CompiledClause> CC = Clauses.compile(*C);
      if (!CC)
        return CC.diag();
      Infos.push_back(CC->Info);
      Shapes.push_back(shapeOf(C->Head));
      Out.MaxXReg = std::max(Out.MaxXReg, CC->MaxXUsed);
    }
    PredicateInfo &Pred = M.predicate(Pid);
    Pred.Clauses = std::move(Infos);
    buildIndexing(Pred, Shapes);
  }

  // Predicates referenced by calls but never defined.
  for (int32_t Pid = 0; Pid != M.numPredicates(); ++Pid)
    if (M.predicate(Pid).Clauses.empty())
      Out.UndefinedPredicates.push_back(Pid);
  return std::move(Out);
}

} // namespace

Result<CompiledProgram> awam::compileProgram(const ParsedProgram &Program,
                                             SymbolTable &Syms) {
  return ProgramContext(Program, Syms).run();
}

Result<CompiledProgram> awam::compileSource(std::string_view Source,
                                            SymbolTable &Syms,
                                            TermArena &Arena) {
  Result<ParsedProgram> P = parseProgram(Source, Syms, Arena);
  if (!P)
    return P.diag();
  return compileProgram(*P, Syms);
}
