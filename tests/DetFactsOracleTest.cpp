//===- tests/DetFactsOracleTest.cpp - Det facts against a quadratic oracle ===//
//
// computeDetFacts keeps each predicate's worst item class current and
// re-evaluates only the callers of a predicate whose class rose. The
// oracle below is the algorithm it replaced, kept whole: it rescans every
// table item for every callee of every item in every round of the body
// fixpoint. Both must give every item the same class and the same
// matching clauses.
//
//===----------------------------------------------------------------------===//

#include "analyzer/DetFacts.h"
#include "analyzer/Session.h"
#include "compiler/CodeModule.h"
#include "compiler/ModuleLink.h"
#include "compiler/ProgramCompiler.h"
#include "programs/Benchmarks.h"

#include "RandomProgramGen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

using namespace awam;

namespace {
namespace oracle {

struct ArgClass {
  enum Kind : uint8_t { Var, ConstAtom, ConstInt, List, Struct };
  Kind K = Var;
  Symbol Sym = 0;
  int64_t Int = 0;
  int32_t Arity = 0;
};

struct ClauseFacts {
  ArgClass Class;
  bool HeadCanFail = false;
  bool HasBuiltin = false;
  bool HasCut = false;
  std::vector<int32_t> Callees;
};

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
    case Opcode::GetList:
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
          ClassDone = true;
      }
      break;
    case Opcode::GetVariableX:
    case Opcode::GetVariableY:
      if (InHead && !ClassDone && I.B == 0)
        ClassDone = true;
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
      break;
    }
  }
  return F;
}

bool mutuallyExclusive(const std::vector<ClauseFacts> &CF,
                       const std::vector<size_t> &Matching,
                       bool Instantiated) {
  const size_t M = Matching.size();
  if (M < 2)
    return true;
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
      const ArgClass &A = CF[Matching[Order[J]]].Class;
      const ArgClass &B = CF[Matching[Order[J + 1]]].Class;
      if (A.K != ArgClass::Var && !distinctClasses(A, B))
        HasLaterTwin[Order[J]] = 1;
    }
  }
  bool LaterVar = false;
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

bool classMatches(const PatNode &Root, const ArgClass &C,
                  const SymbolTable &Syms) {
  if (C.K == ArgClass::Var)
    return true;
  switch (Root.K) {
  case PatKind::VarP:
  case PatKind::AnyP:
  case PatKind::GroundP:
  case PatKind::NVP:
    return true;
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
  case PatKind::ListP:
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

std::vector<DetItemFacts> detFacts(const AnalysisResult &R,
                                   const CompiledProgram &Program) {
  if (!Program.Module || R.Items.empty())
    return {};
  const CodeModule &M = *Program.Module;
  const SymbolTable &Syms = M.symbols();
  std::vector<std::vector<ClauseFacts>> Facts(
      static_cast<size_t>(M.numPredicates()));
  std::vector<char> FactsDone(static_cast<size_t>(M.numPredicates()), 0);
  auto factsOf = [&](int32_t Pid) -> const std::vector<ClauseFacts> & {
    auto P = static_cast<size_t>(Pid);
    if (!FactsDone[P]) {
      const PredicateInfo &PI = M.predicate(Pid);
      for (const ClauseInfo &C : PI.Clauses)
        Facts[P].push_back(clauseFacts(M, C, PI.Arity));
      FactsDone[P] = 1;
    }
    return Facts[P];
  };

  struct ItemInfo {
    bool Mutex = false;
    bool SingleNoFail = false;
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
    if (Matching.empty() && It.Success)
      for (size_t C = 0; C != CF.size(); ++C)
        Matching.push_back(C);
    bool Instantiated =
        Root && Root->K != PatKind::VarP && Root->K != PatKind::AnyP;
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

  // Every callee's contribution rescans the whole table.
  auto contribution = [&](int32_t Pid) {
    int Best = -1;
    for (size_t J = 0; J != NI; ++J)
      if (R.Items[J].PredId == Pid)
        Best = std::max(Best, R.Items[J].Success ? Info[J].Class : Semidet);
    return Best < 0 ? Semidet : Best;
  };
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t I = 0; I != NI; ++I) {
      if (!R.Items[I].Success)
        continue;
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

} // namespace oracle

/// Analyzes \p Entry of \p Program under det and expects computeDetFacts
/// to agree with the oracle on every item; returns the item count.
size_t expectFactsMatchOracle(const CompiledProgram &Program,
                              const std::string &Entry,
                              const std::string &What) {
  AnalyzerOptions O;
  O.DomainName = "det";
  AnalysisSession A(Program, O);
  Result<AnalysisResult> R = A.analyze(Entry);
  EXPECT_TRUE(R) << What << ": " << R.diag().str();
  if (!R)
    return 0;
  std::vector<DetItemFacts> Got = computeDetFacts(*R, Program);
  std::vector<DetItemFacts> Want = oracle::detFacts(*R, Program);
  EXPECT_EQ(Got.size(), Want.size()) << What;
  for (size_t I = 0; I != std::min(Got.size(), Want.size()); ++I) {
    EXPECT_EQ(detItemClassName(Got[I].Class), detItemClassName(Want[I].Class))
        << What << " item " << I << " " << R->Items[I].PredLabel;
    EXPECT_EQ(Got[I].Matching, Want[I].Matching)
        << What << " item " << I << " " << R->Items[I].PredLabel;
  }
  return Got.size();
}

TEST(DetDomainTest, FactsMatchTheQuadraticOracleItemByItem) {
  size_t Items = 0;
  for (const BenchmarkProgram &B : benchmarkPrograms()) {
    SymbolTable Syms;
    TermArena Arena;
    Result<CompiledProgram> P = compileSource(B.Source, Syms, Arena);
    ASSERT_TRUE(P) << B.Name << ": " << P.diag().str();
    Items += expectFactsMatchOracle(*P, "main", std::string(B.Name));
  }

  for (unsigned Seed = 0; Seed != 64; ++Seed) {
    SymbolTable Syms;
    TermArena Arena;
    Result<CompiledProgram> P =
        compileSource(testgen::generateProgram(Seed), Syms, Arena);
    ASSERT_TRUE(P) << "seed " << Seed << ": " << P.diag().str();
    // generateProgram always defines p0; its arity varies by seed.
    int32_t P0 = -1;
    for (int Arity = 1; Arity <= 3 && P0 < 0; ++Arity)
      P0 = P->Module->findPredicate(Syms.lookup("p0"), Arity);
    ASSERT_GE(P0, 0) << "seed " << Seed;
    Items += expectFactsMatchOracle(*P, P->Module->predicateLabel(P0),
                                    "seed " + std::to_string(Seed));
  }

  // Linked corpora from the ladder's pools, the largest at 4k clauses.
  const std::pair<uint64_t, int> Corpora[] = {{1, 1000}, {2, 2000}, {3, 4000}};
  for (const auto &[Seed, Clauses] : Corpora) {
    testgen::CorpusOptions CO;
    CO.Clauses = Clauses;
    testgen::Corpus C = testgen::generateCorpus(Seed, CO);
    SymbolTable Syms;
    TermArena Arena;
    Result<CompiledProgram> Lib = compileSource(C.Library, Syms, Arena);
    ASSERT_TRUE(Lib) << Lib.diag().str();
    Result<CompiledProgram> User = compileSource(C.User, Syms, Arena);
    ASSERT_TRUE(User) << User.diag().str();
    Result<LinkedProgram> L =
        linkPrograms({{&*Lib, "library"}, {&*User, "user"}});
    ASSERT_TRUE(L) << L.diag().str();
    Items += expectFactsMatchOracle(L->Program, "drive/1",
                                    "corpus " + std::to_string(Seed) + "/" +
                                        std::to_string(Clauses));
  }
  EXPECT_GT(Items, 1000u) << "the tables compared were too small to matter";
}

} // namespace
