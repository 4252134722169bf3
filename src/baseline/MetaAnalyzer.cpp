//===- baseline/MetaAnalyzer.cpp ------------------------------------------===//

#include "baseline/MetaAnalyzer.h"

#include "absdom/AbsBuiltins.h"
#include "absdom/AbsOps.h"
#include "compiler/Builtins.h"

using namespace awam;

MetaAnalyzer::MetaAnalyzer(const ParsedProgram &Program, SymbolTable &Syms,
                           AnalyzerOptions Options)
    : Program(Program), Syms(Syms), Options(Options) {
  Table = ExtensionTable(Options.TableImpl);
  for (const ParsedClause &C : Program.Clauses) {
    Symbol Name = C.Head->functor();
    int Arity = C.Head->isStruct() ? C.Head->arity() : 0;
    auto [It, New] = PredIndex.try_emplace({Name, Arity},
                                           static_cast<int>(Preds.size()));
    if (New) {
      PredClauses P;
      P.Label =
          std::string(Syms.name(Name)) + "/" + std::to_string(Arity);
      Preds.push_back(std::move(P));
    }
    Preds[It->second].Clauses.push_back(&C);
  }
}

bool MetaAnalyzer::analyzeCall(int PredIdx, const std::vector<Cell> &Args) {
  if (++Reductions > IterationBudget) {
    BudgetExceeded = true;
    return false;
  }
  Pattern CPat = canonicalize(St, Args, Options.DepthLimit,
                              /*WidenConstants=*/true);
  bool Created = false;
  ETEntry &Entry = Table.findOrCreate(PredIdx, CPat, Created);
  if (Created)
    Changed = true;

  auto returnViaTable = [&]() {
    if (!Entry.Success)
      return false;
    std::vector<int64_t> Roots = instantiate(St, *Entry.Success);
    for (size_t I = 0; I != Roots.size(); ++I)
      if (!absUnify(St, Args[I], Cell::ref(Roots[I])))
        return false;
    return true;
  };

  if (Entry.Explored)
    return returnViaTable();
  Entry.Explored = true;
  ++Activations;

  int64_t TrailMark = St.trailMark();
  int64_t HeapMark = St.heapTop();
  for (const ParsedClause *C : Preds[PredIdx].Clauses) {
    if (BudgetExceeded)
      return false;
    St.unwind(TrailMark);
    St.truncate(HeapMark);

    // Fresh instance of the calling pattern for this clause trial.
    std::vector<int64_t> CalleeArgs = instantiate(St, Entry.Call);

    // Rename the clause apart by building head terms from the AST, then
    // run one general abstract unification per head argument — this is the
    // interpretive step compilation specializes away.
    std::unordered_map<int, int64_t> VarMap;
    bool Ok = true;
    int Arity = C->Head->isStruct() ? C->Head->arity() : 0;
    for (int I = 0; I != Arity && Ok; ++I) {
      int64_t HeadArg = St.buildTerm(C->Head->arg(I), VarMap);
      Ok = absUnify(St, Cell::ref(CalleeArgs[I]), Cell::ref(HeadArg));
    }
    if (Ok)
      Ok = solveGoals(*C, VarMap);
    if (!Ok)
      continue; // artificial or real failure: next clause

    // updateET: abstract the callee arguments and lub into the table.
    std::vector<Cell> Cells;
    for (int64_t A : CalleeArgs)
      Cells.push_back(Cell::ref(A));
    Pattern SPat = canonicalize(St, Cells, Options.DepthLimit);
    if (Entry.Success) {
      if (!(SPat == *Entry.Success)) {
        Pattern Merged =
            lubPatterns(*Entry.Success, SPat, Options.DepthLimit);
        if (!(Merged == *Entry.Success)) {
          Entry.Success = std::move(Merged);
          Changed = true;
        }
      }
    } else {
      Entry.Success = std::move(SPat);
      Changed = true;
    }
  }

  // All clauses explored: lookupET.
  St.unwind(TrailMark);
  St.truncate(HeapMark);
  return returnViaTable();
}

bool MetaAnalyzer::solveGoals(const ParsedClause &Clause,
                              std::unordered_map<int, int64_t> &VarMap) {
  for (const Term *G : Clause.Body) {
    if (BudgetExceeded)
      return false;
    if (G->isAtom() && G->functor() == SymbolTable::SymCut)
      continue; // cut ignored, as in the compiled analyzer
    if (G->isAtom() && G->functor() == SymbolTable::SymFail)
      return false;
    if (!G->isCallable())
      return false;

    int Arity = G->isStruct() ? G->arity() : 0;
    std::vector<Cell> Args;
    Args.reserve(Arity);
    for (int I = 0; I != Arity; ++I)
      Args.push_back(Cell::ref(St.buildTerm(G->arg(I), VarMap)));

    if (std::optional<BuiltinId> B =
            lookupBuiltin(Syms.name(G->functor()), Arity)) {
      ++Reductions;
      if (!applyAbsBuiltin(St, *B, Args))
        return false;
      continue;
    }
    auto It = PredIndex.find({G->functor(), Arity});
    if (It == PredIndex.end())
      return false; // undefined predicate fails
    if (!analyzeCall(It->second, Args))
      return false;
  }
  return true;
}

bool MetaAnalyzer::runIteration(int PredIdx, const Pattern &Entry) {
  St.reset();
  Table.beginIteration();
  IterationBudget = Options.MaxSteps;
  Reductions = 0;

  std::vector<Cell> Args;
  for (int64_t A : instantiate(St, Entry))
    Args.push_back(Cell::ref(A));
  // The top-level call drives exploration exactly like any other call.
  // (Entry.Explored is still false, so analyzeCall explores the clauses.)
  analyzeCall(PredIdx, Args);
  return !BudgetExceeded;
}

Result<AnalysisResult> MetaAnalyzer::analyze(std::string_view Name,
                                             const Pattern &Entry) {
  Symbol S = Syms.lookup(Name);
  int Arity = static_cast<int>(Entry.Roots.size());
  auto It = S == ~0u ? PredIndex.end() : PredIndex.find({S, Arity});
  if (It == PredIndex.end()) {
    std::vector<std::pair<std::string, int>> Defined;
    for (const auto &[Key, Idx] : PredIndex)
      Defined.emplace_back(std::string(Syms.name(Key.first)), Key.second);
    return makeError(
        undefinedPredicateMessage("entry", Name, Arity, Defined));
  }

  Table = ExtensionTable(Options.TableImpl);
  Activations = 0;
  AnalysisResult R;
  uint64_t TotalReductions = 0;
  for (int Iter = 0; Iter != Options.MaxIterations; ++Iter) {
    Changed = false;
    BudgetExceeded = false;
    if (!runIteration(It->second, Entry))
      return makeError("baseline analyzer budget exceeded");
    TotalReductions += Reductions;
    ++R.Iterations;
    if (!Changed) {
      R.Converged = true;
      break;
    }
  }
  Reductions = TotalReductions;
  R.Counters.Instructions = TotalReductions;
  R.Counters.ETProbes = Table.probeCount();
  R.Counters.ActivationRuns = Activations;
  for (const ETEntry &E : Table.entries())
    R.Items.push_back({-1, Preds[E.PredId].Label, E.Call, E.Success});
  return R;
}

Result<AnalysisResult> MetaAnalyzer::analyze(std::string_view EntrySpec) {
  Result<std::pair<std::string, Pattern>> Parsed = parseEntrySpec(EntrySpec);
  if (!Parsed)
    return Parsed.diag();
  return analyze(Parsed->first, Parsed->second);
}
