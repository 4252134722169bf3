//===- term/Desugar.cpp ---------------------------------------------------===//

#include "term/Desugar.h"

#include <algorithm>

using namespace awam;

namespace {

/// The control functors, looked up (never interned) in one symbol table;
/// ~0u, which no term carries, stands for a name the table lacks.
struct ControlSymbols {
  explicit ControlSymbols(const SymbolTable &Syms)
      : Or(Syms.lookup(";")), IfThen(Syms.lookup("->")),
        Not(Syms.lookup("\\+")) {}

  bool any() const { return Or != ~0u || IfThen != ~0u || Not != ~0u; }
  bool isDisjunction(const Term *G) const { return is(G, Or, 2); }
  bool isIfThen(const Term *G) const { return is(G, IfThen, 2); }
  bool isNaf(const Term *G) const { return is(G, Not, 1); }
  bool isControl(const Term *G) const {
    return isDisjunction(G) || isIfThen(G) || isNaf(G);
  }

private:
  static bool is(const Term *G, Symbol Name, int Arity) {
    return G->isStruct() && G->functor() == Name && G->arity() == Arity;
  }

  Symbol Or, IfThen, Not;
};

class Desugarer {
public:
  Desugarer(SymbolTable &Syms, TermArena &Arena)
      : Syms(Syms), Arena(Arena), Ctl(Syms) {}

  ParsedProgram run(ParsedProgram Program) {
    if (!Ctl.any())
      return Program;
    // Clauses is also the worklist: desugaring a clause appends auxiliary
    // clauses, which may themselves contain control constructs. Clauses
    // without control constructs are left as they are.
    std::vector<ParsedClause> &Clauses = Program.Clauses;
    for (size_t I = 0; I != Clauses.size(); ++I) {
      const std::vector<const Term *> &Goals = Clauses[I].Body;
      if (std::none_of(Goals.begin(), Goals.end(),
                       [&](const Term *G) { return Ctl.isControl(G); }))
        continue;
      // extract() appends to Clauses, so work on a detached body.
      std::vector<const Term *> Body = std::move(Clauses[I].Body);
      int NumVars = Clauses[I].NumVars;
      for (const Term *&G : Body)
        if (Ctl.isControl(G))
          G = extract(G, NumVars, Clauses);
      Clauses[I].Body = std::move(Body);
    }
    return Program;
  }

private:
  /// Replaces control goal \p G with a call to a fresh auxiliary
  /// predicate, appending the auxiliary clauses to \p Work.
  const Term *extract(const Term *G, int NumVars,
                      std::vector<ParsedClause> &Work) {
    collectVars(G, NumVars);
    Symbol AuxName = Syms.intern("$aux" + std::to_string(++Counter));
    const Term *AuxHead =
        Vars.empty() ? Arena.mkAtom(AuxName) : Arena.mkStruct(AuxName, Vars);
    emitAlternatives(G, AuxHead, NumVars, Work);
    return AuxHead;
  }

  /// Sets Vars to the distinct variables of \p T in first-occurrence
  /// (depth-first, left-to-right) order; ids are below \p NumVars.
  void collectVars(const Term *T, int NumVars) {
    Vars.clear();
    Seen.assign(NumVars, false);
    Stack.assign(1, T);
    while (!Stack.empty()) {
      const Term *Cur = Stack.back();
      Stack.pop_back();
      if (Cur->isVar()) {
        if (!Seen[Cur->varId()]) {
          Seen[Cur->varId()] = true;
          Vars.push_back(Cur);
        }
        continue;
      }
      std::span<const Term *const> Args = Cur->args();
      Stack.insert(Stack.end(), Args.rbegin(), Args.rend());
    }
  }

  /// Emits the clauses of the auxiliary predicate for control goal \p G.
  void emitAlternatives(const Term *G, const Term *AuxHead, int NumVars,
                        std::vector<ParsedClause> &Work) {
    // Walk the right spine of a disjunction (a ; b ; c ...) in this loop;
    // only a parenthesized left operand recurses, and the reader bounds
    // that nesting.
    while (Ctl.isDisjunction(G)) {
      const Term *Left = G->arg(0);
      if (Ctl.isIfThen(Left))
        // (C -> T ; E): first clause commits on C.
        emitClause(AuxHead,
                   {Left->arg(0), Arena.mkAtom(SymbolTable::SymCut),
                    Left->arg(1)},
                   NumVars, Work);
      else
        emitAlternatives(Left, AuxHead, NumVars, Work);
      G = G->arg(1);
    }
    if (Ctl.isIfThen(G)) {
      // Bare (C -> T) is (C -> T ; fail).
      emitClause(AuxHead,
                 {G->arg(0), Arena.mkAtom(SymbolTable::SymCut), G->arg(1)},
                 NumVars, Work);
      return;
    }
    if (Ctl.isNaf(G)) {
      emitClause(AuxHead,
                 {G->arg(0), Arena.mkAtom(SymbolTable::SymCut),
                  Arena.mkAtom(SymbolTable::SymFail)},
                 NumVars, Work);
      // The always-true second clause: head variables stay untouched.
      emitClause(AuxHead, {}, NumVars, Work);
      return;
    }
    // A plain alternative: its conjunction becomes the clause body.
    emitClause(AuxHead, {G}, NumVars, Work);
  }

  /// Appends one auxiliary clause, flattening conjunctions in \p Goals.
  void emitClause(const Term *Head, std::initializer_list<const Term *> Goals,
                  int NumVars, std::vector<ParsedClause> &Work) {
    ParsedClause C;
    C.Head = Head;
    C.NumVars = NumVars; // ids are clause-local to the original clause
    for (const Term *G : Goals)
      flattenInto(G, C.Body);
    Work.push_back(std::move(C));
  }

  /// Appends the conjuncts of \p G to \p Out, left to right, dropping
  /// `true`.
  void flattenInto(const Term *G, std::vector<const Term *> &Out) {
    Stack.assign(1, G);
    while (!Stack.empty()) {
      const Term *Cur = Stack.back();
      Stack.pop_back();
      if (Cur->isStruct() && Cur->functor() == SymbolTable::SymComma &&
          Cur->arity() == 2) {
        Stack.push_back(Cur->arg(1));
        Stack.push_back(Cur->arg(0));
        continue;
      }
      if (Cur->isAtom() && Cur->functor() == SymbolTable::SymTrue)
        continue;
      Out.push_back(Cur);
    }
  }

  SymbolTable &Syms;
  TermArena &Arena;
  ControlSymbols Ctl;
  int Counter = 0;
  // Scratch space, reused across calls.
  std::vector<const Term *> Stack;
  std::vector<const Term *> Vars;
  std::vector<bool> Seen;
};

} // namespace

Result<ParsedProgram> awam::desugarControl(ParsedProgram Program,
                                           SymbolTable &Syms,
                                           TermArena &Arena) {
  return Desugarer(Syms, Arena).run(std::move(Program));
}
