//===- analyzer/DetFacts.cpp - Determinism fact computation ---------------===//
//
// The determinism computation formerly private to DetDomain.cpp: clause
// first-argument classes recovered from head code, pairwise mutual
// exclusion under the calling pattern, and a monotone body fixpoint. The
// det domain renders these facts; the specializer adapter consumes them.
// Everything over-approximates — an unclassifiable head argument is
// "matches anything", an overflowed scan keeps conservative defaults, and
// builtins count as can-fail.
//
//===----------------------------------------------------------------------===//

#include "analyzer/DetFacts.h"

#include "compiler/CodeModule.h"
#include "compiler/ProgramCompiler.h"

#include <algorithm>
#include <tuple>

using namespace awam;

namespace {

/// The first-argument indexing class of one clause head.
struct ArgClass {
  enum Kind : uint8_t {
    Var,       ///< head takes anything in argument 0
    ConstAtom, ///< a specific atom (Sym)
    ConstInt,  ///< a specific integer (Int)
    List,      ///< a cons cell
    Struct,    ///< a specific functor (Sym/Arity)
  };
  Kind K = Var;
  Symbol Sym = 0;
  int64_t Int = 0;
  int32_t Arity = 0;
};

/// Static facts of one clause: its first-argument class, whether its head
/// unification can fail, and what its body calls.
struct ClauseFacts {
  ArgClass Class;
  bool HeadCanFail = false;
  bool HasBuiltin = false;
  bool HasCut = false;
  std::vector<int32_t> Callees;
};

/// True if no concrete first argument can match both classes (the mutual-
/// exclusion test). Var matches everything; two List heads both match any
/// cons; otherwise classes are distinct across categories and distinct
/// within a category when their payloads differ.
bool distinctClasses(const ArgClass &A, const ArgClass &B) {
  if (A.K == ArgClass::Var || B.K == ArgClass::Var)
    return false;
  if (A.K != B.K)
    return true;
  switch (A.K) {
  case ArgClass::ConstAtom:
    return A.Sym != B.Sym;
  case ArgClass::ConstInt:
    return A.Int != B.Int;
  case ArgClass::Struct:
    return A.Sym != B.Sym || A.Arity != B.Arity;
  case ArgClass::List:
  case ArgClass::Var:
    return false;
  }
  return false;
}

/// Scans one clause's code: the get instruction on argument register 0
/// decides the class, head-section failure opcodes decide HeadCanFail, and
/// Call/Execute/Builtin record the body. The head section ends at the
/// first body-construction or control instruction.
ClauseFacts clauseFacts(const CodeModule &M, const ClauseInfo &C,
                        int32_t Arity) {
  ClauseFacts F;
  bool InHead = true;
  bool ClassDone = Arity == 0;
  for (int32_t A = C.Entry; A != C.Entry + C.NumInstr; ++A) {
    const Instruction &I = M.at(A);
    switch (I.Op) {
    case Opcode::GetConst:
      if (InHead) {
        F.HeadCanFail = true;
        if (!ClassDone && I.B == 0) {
          const ConstOperand &CO = M.constAt(I.A);
          if (CO.K == ConstOperand::AtomK) {
            F.Class.K = ArgClass::ConstAtom;
            F.Class.Sym = CO.Name;
          } else {
            F.Class.K = ArgClass::ConstInt;
            F.Class.Int = CO.Int;
          }
          ClassDone = true;
        }
      }
      break;
    case Opcode::GetList: // NB: the argument register is field A
      if (InHead) {
        F.HeadCanFail = true;
        if (!ClassDone && I.A == 0) {
          F.Class.K = ArgClass::List;
          ClassDone = true;
        }
      }
      break;
    case Opcode::GetStructure:
      if (InHead) {
        F.HeadCanFail = true;
        if (!ClassDone && I.B == 0) {
          const FunctorArity &FA = M.functorAt(I.A);
          F.Class.K = ArgClass::Struct;
          F.Class.Sym = FA.Name;
          F.Class.Arity = FA.Arity;
          ClassDone = true;
        }
      }
      break;
    case Opcode::GetValueX:
    case Opcode::GetValueY:
      if (InHead) {
        F.HeadCanFail = true;
        if (!ClassDone && I.B == 0)
          ClassDone = true; // an already-seen variable: class stays Var
      }
      break;
    case Opcode::GetVariableX:
    case Opcode::GetVariableY:
      if (InHead && !ClassDone && I.B == 0)
        ClassDone = true; // fresh variable: class stays Var
      break;
    case Opcode::UnifyConst:
    case Opcode::UnifyValueX:
    case Opcode::UnifyValueY:
      if (InHead)
        F.HeadCanFail = true;
      break;
    case Opcode::PutVariableX:
    case Opcode::PutVariableY:
    case Opcode::PutValueX:
    case Opcode::PutValueY:
    case Opcode::PutConst:
    case Opcode::PutList:
    case Opcode::PutStructure:
      InHead = false;
      break;
    case Opcode::Call:
    case Opcode::Execute:
      InHead = false;
      F.Callees.push_back(I.A);
      break;
    case Opcode::Builtin:
      InHead = false;
      F.HasBuiltin = true;
      break;
    case Opcode::NeckCut:
    case Opcode::CutY:
      F.HasCut = true;
      break;
    default:
      break; // allocate / unify_variable / cut / proceed: neutral
    }
  }
  return F;
}

/// True when every pair of the clauses at \p Matching (positions in \p CF,
/// in source order) is exclusive: the earlier clause cuts, or, on an
/// instantiated argument, their classes are distinct. A clause without a
/// cut must be distinct from every later one, so one pass over the
/// clauses, after a sort that finds each class's last clause, decides it.
bool mutuallyExclusive(const std::vector<ClauseFacts> &CF,
                       const std::vector<size_t> &Matching,
                       bool Instantiated) {
  const size_t M = Matching.size();
  if (M < 2)
    return true;
  // HasLaterTwin[I]: a later clause has the same class as clause I.
  std::vector<char> HasLaterTwin(M, 0);
  if (Instantiated) {
    auto key = [&](size_t I) {
      const ArgClass &C = CF[Matching[I]].Class;
      return std::tuple(C.K, C.Sym, C.Int, C.Arity, I);
    };
    std::vector<size_t> Order(M);
    for (size_t I = 0; I != M; ++I)
      Order[I] = I;
    std::sort(Order.begin(), Order.end(),
              [&](size_t A, size_t B) { return key(A) < key(B); });
    for (size_t J = 0; J + 1 != M; ++J) {
      // Equal classes sort together, by position; a non-Var class is
      // distinct from every class but its equals (and Var).
      const ArgClass &A = CF[Matching[Order[J]]].Class;
      const ArgClass &B = CF[Matching[Order[J + 1]]].Class;
      if (A.K != ArgClass::Var && !distinctClasses(A, B))
        HasLaterTwin[Order[J]] = 1;
    }
  }
  bool LaterVar = false; // some clause after the current one is Var
  bool AllExclusive = true;
  for (size_t I = M; I-- != 0;) {
    const ClauseFacts &F = CF[Matching[I]];
    bool Last = I + 1 == M;
    if (!Last && !F.HasCut &&
        (!Instantiated || F.Class.K == ArgClass::Var || LaterVar ||
         HasLaterTwin[I]))
      AllExclusive = false;
    LaterVar = LaterVar || F.Class.K == ArgClass::Var;
  }
  return AllExclusive;
}

/// True if a first argument abstracted as \p Root can reach a clause of
/// class \p C at runtime.
bool classMatches(const PatNode &Root, const ArgClass &C,
                  const SymbolTable &Syms) {
  if (C.K == ArgClass::Var)
    return true;
  switch (Root.K) {
  case PatKind::VarP:
  case PatKind::AnyP:
  case PatKind::GroundP:
  case PatKind::NVP:
    return true; // shape unknown: every head is reachable
  case PatKind::ConP:
    return C.K == ArgClass::ConstAtom && C.Sym == Root.Sym;
  case PatKind::IntP:
    return C.K == ArgClass::ConstInt && C.Int == Root.Num;
  case PatKind::AtomTP:
    return C.K == ArgClass::ConstAtom;
  case PatKind::IntTP:
    return C.K == ArgClass::ConstInt;
  case PatKind::ConstP:
    return C.K == ArgClass::ConstAtom || C.K == ArgClass::ConstInt;
  case PatKind::ListP: // an alpha-list is [] or a cons
    return C.K == ArgClass::List ||
           (C.K == ArgClass::ConstAtom && Syms.name(C.Sym) == "[]");
  case PatKind::ConsP:
    return C.K == ArgClass::List;
  case PatKind::StrP:
    return C.K == ArgClass::Struct && C.Sym == Root.Sym &&
           C.Arity == Root.ChildCount;
  }
  return true;
}

} // namespace

const char *awam::detItemClassName(DetItemClass C) {
  static const char *const Names[] = {"det", "semidet", "nondet", "fails"};
  return Names[static_cast<size_t>(C)];
}

std::vector<DetItemFacts>
awam::computeDetFacts(const AnalysisResult &R,
                      const CompiledProgram &Program) {
  if (!Program.Module || R.Items.empty())
    return {};
  const CodeModule &M = *Program.Module;
  const SymbolTable &Syms = M.symbols();

  // Clause facts, computed once per predicate that the table mentions.
  std::vector<std::vector<ClauseFacts>> Facts(
      static_cast<size_t>(M.numPredicates()));
  std::vector<char> FactsDone(static_cast<size_t>(M.numPredicates()), 0);
  auto factsOf = [&](int32_t Pid) -> const std::vector<ClauseFacts> & {
    auto P = static_cast<size_t>(Pid);
    if (!FactsDone[P]) {
      const PredicateInfo &PI = M.predicate(Pid);
      Facts[P].reserve(PI.Clauses.size());
      for (const ClauseInfo &C : PI.Clauses)
        Facts[P].push_back(clauseFacts(M, C, PI.Arity));
      FactsDone[P] = 1;
    }
    return Facts[P];
  };

  struct ItemInfo {
    bool Mutex = false;
    bool SingleNoFail = false; ///< one matching clause, head cannot fail
    bool Builtin = false;
    std::vector<int32_t> Callees;
    int Class = static_cast<int>(DetItemClass::Det);
  };
  size_t NI = R.Items.size();
  std::vector<ItemInfo> Info(NI);
  std::vector<DetItemFacts> Out(NI);

  constexpr int Det = static_cast<int>(DetItemClass::Det);
  constexpr int Semidet = static_cast<int>(DetItemClass::Semidet);
  constexpr int Nondet = static_cast<int>(DetItemClass::Nondet);
  constexpr int Fails = static_cast<int>(DetItemClass::Fails);

  for (size_t I = 0; I != NI; ++I) {
    const AnalysisResult::Item &It = R.Items[I];
    const std::vector<ClauseFacts> &CF = factsOf(It.PredId);
    ItemInfo &N = Info[I];
    N.Class = It.Success ? Det : Fails;

    const PatNode *Root = It.Call.Roots.empty()
                              ? nullptr
                              : &It.Call.Nodes[It.Call.Roots[0]];
    std::vector<size_t> &Matching = Out[I].Matching;
    for (size_t C = 0; C != CF.size(); ++C)
      if (!Root || classMatches(*Root, CF[C].Class, Syms))
        Matching.push_back(C);
    // An item that succeeded must have entered some clause; if the class
    // test disagrees (it is approximate), fall back to all clauses.
    if (Matching.empty() && It.Success)
      for (size_t C = 0; C != CF.size(); ++C)
        Matching.push_back(C);

    bool Instantiated =
        Root && Root->K != PatKind::VarP && Root->K != PatKind::AnyP;
    // Two matching clauses are exclusive when no first argument reaches
    // both heads (distinct classes — only meaningful on an instantiated
    // argument, an unbound one unifies with any head), or when the earlier
    // clause cuts: once its cut runs, the later clause is pruned, and if
    // its guard fails it contributes no solution — either way at most one
    // of the pair yields answers.
    N.Mutex = mutuallyExclusive(CF, Matching, Instantiated);
    N.SingleNoFail = Matching.size() == 1 && !CF[Matching[0]].HeadCanFail;
    for (size_t C : Matching) {
      N.Builtin = N.Builtin || CF[C].HasBuiltin;
      for (int32_t Callee : CF[C].Callees)
        if (std::find(N.Callees.begin(), N.Callees.end(), Callee) ==
            N.Callees.end())
          N.Callees.push_back(Callee);
    }
  }

  // A body call's contribution: the worst class among the callee's table
  // items (the calling pattern at the body site is not tracked here). A
  // callee that can fail — or has no item at all — contributes semidet.
  auto contribution = [&](int32_t Pid) {
    int Best = -1;
    for (size_t J = 0; J != NI; ++J)
      if (R.Items[J].PredId == Pid)
        Best = std::max(Best, R.Items[J].Success ? Info[J].Class : Semidet);
    return Best < 0 ? Semidet : Best;
  };

  // Monotone fixpoint: classes only increase, so this terminates.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t I = 0; I != NI; ++I) {
      if (!R.Items[I].Success)
        continue; // stays Fails
      ItemInfo &N = Info[I];
      int Body = N.Builtin ? Semidet : Det;
      for (int32_t Pid : N.Callees)
        Body = std::max(Body, contribution(Pid));
      int C;
      if (!N.Mutex)
        C = Nondet;
      else if (N.SingleNoFail && Body == Det)
        C = Det;
      else
        C = std::max(Semidet, std::min(Body, Nondet));
      if (C > N.Class) {
        N.Class = C;
        Changed = true;
      }
    }
  }
  (void)Fails;

  for (size_t I = 0; I != NI; ++I)
    Out[I].Class = static_cast<DetItemClass>(Info[I].Class);
  return Out;
}
