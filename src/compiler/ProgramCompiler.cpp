//===- compiler/ProgramCompiler.cpp ---------------------------------------===//

#include "compiler/ProgramCompiler.h"

#include "compiler/Builtins.h"
#include "compiler/ClauseCompiler.h"
#include "compiler/Indexing.h"

#include <algorithm>
#include <cstdint>

using namespace awam;

namespace {

class ProgramContext {
public:
  ProgramContext(const ParsedProgram &Program, SymbolTable &Syms)
      : Program(Program), Syms(Syms) {
    Out.Module = std::make_unique<CodeModule>(Syms);
  }

  Result<CompiledProgram> run();

private:
  /// Files the next clause under its head's first argument, whose pool
  /// index the clause compiler found to be \p Key.
  void addShape(const Term *Head, int32_t Key);
  /// Emits the chain over the clauses at \p Positions of \p Pred.
  int32_t chain(const PredicateInfo &Pred, std::span<const int32_t> Positions);
  void buildIndexing(PredicateInfo &Pred);

  const ParsedProgram &Program;
  SymbolTable &Syms;
  CompiledProgram Out;
  ChainEmitter Chains;
  // Per-predicate working storage, kept from predicate to predicate.
  ClauseBuckets<int32_t, int32_t> Buckets;
  std::vector<ClauseInfo> Infos;
  std::vector<int32_t> Entries;
};

void ProgramContext::addShape(const Term *Head, int32_t Key) {
  if (!Head->isStruct())
    return Buckets.addVar(); // arity-0 predicates index as "var"
  switch (Head->arg(0)->kind()) {
  case TermKind::Var:
    return Buckets.addVar();
  case TermKind::Int:
  case TermKind::Atom:
    assert(Key >= 0 && "the clause compiler interns a constant argument");
    return Buckets.addConst(Key);
  case TermKind::Struct:
    if (Head->arg(0)->isCons())
      return Buckets.addList();
    assert(Key >= 0 && "the clause compiler interns a structure's functor");
    return Buckets.addStruct(Key);
  }
}

int32_t ProgramContext::chain(const PredicateInfo &Pred,
                              std::span<const int32_t> Positions) {
  Entries.clear();
  for (int32_t Pos : Positions)
    Entries.push_back(Pred.Clauses[Pos].Entry);
  // The Try B field is the number of argument registers the choice point
  // must save: the predicate's arity.
  return Chains.emit(*Out.Module, Entries, Pred.Arity);
}

void ProgramContext::buildIndexing(PredicateInfo &Pred) {
  CodeModule &M = *Out.Module;
  assert(static_cast<size_t>(Buckets.size()) == Pred.Clauses.size());
  if (Buckets.size() == 1) {
    Pred.IndexEntry = Pred.Clauses[0].Entry;
    return;
  }
  // Every clause, for an unbound first argument.
  auto allChain = [&] {
    Entries.clear();
    for (const ClauseInfo &C : Pred.Clauses)
      Entries.push_back(C.Entry);
    return Chains.emit(M, Entries, Pred.Arity);
  };

  // Arity-0 predicates (or all-var first args) need no dispatch.
  if (Buckets.allVar()) {
    Pred.IndexEntry = allChain();
    return;
  }

  int32_t ListTarget = chain(Pred, Buckets.listChain());

  int32_t ConstTarget = chain(Pred, Buckets.vars());
  if (Buckets.numConstKeys() != 0) {
    ValueSwitch VS;
    VS.Default = ConstTarget;
    VS.Cases.reserve(Buckets.numConstKeys());
    for (size_t K = 0; K != Buckets.numConstKeys(); ++K)
      VS.Cases.emplace_back(Buckets.constKey(K),
                            chain(Pred, Buckets.constChain(K)));
    int32_t TableIdx = M.addValueSwitch(std::move(VS));
    ConstTarget = M.emit({Opcode::SwitchOnConstant, TableIdx, 0});
  }

  int32_t StructTarget = chain(Pred, Buckets.vars());
  if (Buckets.numFunctorKeys() != 0) {
    ValueSwitch VS;
    VS.Default = StructTarget;
    VS.Cases.reserve(Buckets.numFunctorKeys());
    for (size_t K = 0; K != Buckets.numFunctorKeys(); ++K)
      VS.Cases.emplace_back(Buckets.functorKey(K),
                            chain(Pred, Buckets.functorChain(K)));
    int32_t TableIdx = M.addValueSwitch(std::move(VS));
    StructTarget = M.emit({Opcode::SwitchOnStructure, TableIdx, 0});
  }

  int32_t VarTarget = allChain();
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
  // A clause's code takes at most about one instruction per term node
  // plus a few of its own; reserving that (untouched capacity costs no
  // memory) spares a large module the copies of growing by doubling.
  M.reserveCode(static_cast<int32_t>(std::min<size_t>(
      M.codeSize() + Program.NumTermNodes + 4 * N, INT32_MAX)));

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
    Infos.clear();
    Buckets.clear();
    for (int32_t K = First[Pid]; K != First[Pid + 1]; ++K) {
      const ParsedClause *C = ByPred[K];
      Result<CompiledClause> CC = Clauses.compile(*C);
      if (!CC)
        return CC.diag();
      Infos.push_back(CC->Info);
      addShape(C->Head, CC->FirstArgKey);
      Out.MaxXReg = std::max(Out.MaxXReg, CC->MaxXUsed);
    }
    Buckets.finish();
    PredicateInfo &Pred = M.predicate(Pid);
    Pred.Clauses.assign(Infos.begin(), Infos.end());
    buildIndexing(Pred);
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
