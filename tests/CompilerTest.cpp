//===- tests/CompilerTest.cpp - WAM compiler unit tests -------------------===//
//
// Instruction selection (via the disassembler), register discipline,
// environment allocation rules, cut compilation, indexing structure, and
// compile-time error reporting.
//
//===----------------------------------------------------------------------===//

#include "compiler/Disasm.h"
#include "compiler/ProgramCompiler.h"

#include <gtest/gtest.h>

using namespace awam;

namespace {

class CompilerTest : public ::testing::Test {
protected:
  /// Compiles a program; returns the disassembly of the named predicate.
  std::string compilePred(std::string_view Source, std::string_view Name,
                          int Arity) {
    Result<CompiledProgram> P = compileSource(Source, Syms, Arena);
    if (!P)
      return "ERROR: " + P.diag().str();
    Program = std::make_unique<CompiledProgram>(P.take());
    int32_t Pid =
        Program->Module->findPredicate(Syms.intern(Name), Arity);
    if (Pid < 0)
      return "NOT-FOUND";
    return disassemblePredicate(*Program->Module, Pid);
  }

  bool contains(const std::string &Hay, std::string_view Needle) {
    return Hay.find(Needle) != std::string::npos;
  }

  SymbolTable Syms;
  TermArena Arena;
  std::unique_ptr<CompiledProgram> Program;
};

TEST_F(CompilerTest, FactCompilesToGetsAndProceed) {
  std::string D = compilePred("p(a, 1).", "p", 2);
  EXPECT_TRUE(contains(D, "get_const           a, A1")) << D;
  EXPECT_TRUE(contains(D, "get_const           1, A2")) << D;
  EXPECT_TRUE(contains(D, "proceed")) << D;
  EXPECT_FALSE(contains(D, "allocate")) << D;
}

TEST_F(CompilerTest, PaperFigure2Sequence) {
  // The paper's example head compiles to the Figure 2 sequence:
  // get_const, get_list, unify_var x2, unify_var x2... breadth-first with
  // the nested structure handled after the list level.
  std::string D = compilePred("p(a, [f(V)|L]) :- q(V, L).\nq(_, _).",
                              "p", 2);
  size_t GetConst = D.find("get_const");
  size_t GetList = D.find("get_list");
  size_t GetStruct = D.find("get_structure       f/1");
  ASSERT_NE(GetConst, std::string::npos) << D;
  ASSERT_NE(GetList, std::string::npos) << D;
  ASSERT_NE(GetStruct, std::string::npos) << D;
  // Breadth-first: the list level is consumed before f/1 is entered.
  EXPECT_LT(GetConst, GetList);
  EXPECT_LT(GetList, GetStruct);
}

TEST_F(CompilerTest, LastCallOptimization) {
  std::string D = compilePred("p(X) :- q(X).\nq(_).", "p", 1);
  EXPECT_TRUE(contains(D, "execute             q/1")) << D;
  EXPECT_FALSE(contains(D, "call")) << D;
  EXPECT_FALSE(contains(D, "allocate")) << D;
}

TEST_F(CompilerTest, EnvironmentForTwoCalls) {
  std::string D = compilePred("p(X) :- q(X), r(X).\nq(_).\nr(_).", "p", 1);
  EXPECT_TRUE(contains(D, "allocate            1")) << D;
  EXPECT_TRUE(contains(D, "get_variable_y")) << D;
  EXPECT_TRUE(contains(D, "call                q/1")) << D;
  EXPECT_TRUE(contains(D, "deallocate")) << D;
  EXPECT_TRUE(contains(D, "execute             r/1")) << D;
}

TEST_F(CompilerTest, VoidHeadArgumentEmitsNothing) {
  std::string D = compilePred("p(_, b).", "p", 2);
  EXPECT_FALSE(contains(D, "A1")) << D; // first argument untouched
  EXPECT_TRUE(contains(D, "get_const           b, A2")) << D;
}

TEST_F(CompilerTest, VoidSubtermsMerge) {
  std::string D = compilePred("p(f(_, _, X)) :- q(X).\nq(_).", "p", 1);
  EXPECT_TRUE(contains(D, "unify_void          2")) << D;
}

TEST_F(CompilerTest, NeckCutVsDeepCut) {
  std::string DN = compilePred("p(X) :- !, q(X).\nq(_).", "p", 1);
  EXPECT_TRUE(contains(DN, "neck_cut")) << DN;
  EXPECT_FALSE(contains(DN, "get_level")) << DN;

  std::string DD = compilePred("p(X) :- q(X), !, r(X).\nq(_).\nr(_).",
                               "p", 1);
  EXPECT_TRUE(contains(DD, "get_level")) << DD;
  EXPECT_TRUE(contains(DD, "cut_y")) << DD;
}

TEST_F(CompilerTest, BodyStructureBuiltBottomUp) {
  std::string D = compilePred("p :- q(f(g(1))).\nq(_).", "p", 0);
  size_t G = D.find("put_structure       g/1");
  size_t F = D.find("put_structure       f/1");
  ASSERT_NE(G, std::string::npos) << D;
  ASSERT_NE(F, std::string::npos) << D;
  EXPECT_LT(G, F) << D; // inner structure first
}

TEST_F(CompilerTest, BuiltinGoalCompilesInline) {
  std::string D = compilePred("p(X, Y) :- Y is X + 1.", "p", 2);
  EXPECT_TRUE(contains(D, "builtin             is/2")) << D;
  EXPECT_FALSE(contains(D, "call")) << D;
}

TEST_F(CompilerTest, SwitchOnTermEmitted) {
  std::string D = compilePred(
      "t(a). t(1). t([_|_]). t(f(_)). t(X) :- q(X).\nq(_).", "t", 1);
  EXPECT_TRUE(contains(D, "switch_on_term")) << D;
  // The secondary dispatch tables live in the module-wide indexing code.
  std::string Module = disassembleModule(*Program->Module);
  EXPECT_TRUE(contains(Module, "switch_on_constant")) << Module;
  EXPECT_TRUE(contains(Module, "switch_on_structure")) << Module;
}

TEST_F(CompilerTest, SingleClauseHasNoIndexing) {
  std::string D = compilePred("only(a).", "only", 1);
  EXPECT_FALSE(contains(D, "switch_on_term")) << D;
  EXPECT_FALSE(contains(D, "try      ")) << D;
}

TEST_F(CompilerTest, TryChainCarriesArity) {
  Result<CompiledProgram> P =
      compileSource("m(X, Y) :- a(X, Y).\nm(X, Y) :- b(X, Y).\n"
                    "a(_, _).\nb(_, _).",
                    Syms, Arena);
  ASSERT_TRUE(P);
  const CodeModule &M = *P->Module;
  bool FoundTry = false;
  for (int32_t A = 0; A != M.codeSize(); ++A)
    if (M.at(A).Op == Opcode::Try && M.at(A).B == 2)
      FoundTry = true;
  EXPECT_TRUE(FoundTry) << "try must save the predicate's 2 arguments";
}

TEST_F(CompilerTest, RedefiningBuiltinRejected) {
  Result<CompiledProgram> P = compileSource("is(X, X).", Syms, Arena);
  EXPECT_FALSE(P);
}

TEST_F(CompilerTest, DisjunctionCompilesViaAuxiliaryPredicate) {
  Result<CompiledProgram> P =
      compileSource("p :- (a ; b).\na.\nb.", Syms, Arena);
  ASSERT_TRUE(P) << P.diag().str();
  // The desugared auxiliary predicate exists with two clauses.
  bool FoundAux = false;
  for (int32_t Pid = 0; Pid != P->Module->numPredicates(); ++Pid)
    if (P->Module->predicateLabel(Pid).starts_with("$aux") &&
        P->Module->predicate(Pid).Clauses.size() == 2)
      FoundAux = true;
  EXPECT_TRUE(FoundAux);
}

TEST_F(CompilerTest, UndefinedPredicatesReported) {
  Result<CompiledProgram> P = compileSource("p :- missing.", Syms, Arena);
  ASSERT_TRUE(P);
  ASSERT_EQ(P->UndefinedPredicates.size(), 1u);
  EXPECT_EQ(P->Module->predicateLabel(P->UndefinedPredicates[0]),
            "missing/0");
}

TEST_F(CompilerTest, ProfileCountsArgsAndPreds) {
  Result<CompiledProgram> P = compileSource(
      "f(_, _).\nf(a, b).\ng(_).\nh.", Syms, Arena);
  ASSERT_TRUE(P);
  EXPECT_EQ(P->NumPreds, 3);
  EXPECT_EQ(P->NumArgs, 3); // f/2 + g/1 + h/0
}

TEST_F(CompilerTest, ModuleLayoutFixedPrologue) {
  Result<CompiledProgram> P = compileSource("p.", Syms, Arena);
  ASSERT_TRUE(P);
  EXPECT_EQ(P->Module->at(kHaltAddress).Op, Opcode::Halt);
  EXPECT_EQ(P->Module->at(kProceedAddress).Op, Opcode::Proceed);
}

TEST_F(CompilerTest, ConstPoolDeduplicates) {
  Result<CompiledProgram> P =
      compileSource("p(a, a, a, 7, 7).", Syms, Arena);
  ASSERT_TRUE(P);
  const CodeModule &M = *P->Module;
  // Count distinct constants referenced by the gets: must be 2 pool slots.
  std::set<int32_t> Pool;
  for (int32_t A = 0; A != M.codeSize(); ++A)
    if (M.at(A).Op == Opcode::GetConst)
      Pool.insert(M.at(A).A);
  EXPECT_EQ(Pool.size(), 2u);
}

TEST_F(CompilerTest, InterningIntoCopiedPoolsFindsTheCopiedEntries) {
  Result<CompiledProgram> P =
      compileSource("p(a, 7, f(b)).\nq(g(a, 7)).", Syms, Arena);
  ASSERT_TRUE(P);
  const CodeModule &M = *P->Module;
  CodeModule Copy(Syms);
  Copy.copyPoolsFrom(M);
  ASSERT_EQ(Copy.numConsts(), M.numConsts());
  ASSERT_EQ(Copy.numFunctors(), M.numFunctors());
  // Every copied entry interns to its own index; a new one goes after.
  for (int32_t I = 0; I != M.numConsts(); ++I)
    EXPECT_EQ(Copy.internConst(M.constAt(I)), I);
  for (int32_t I = 0; I != M.numFunctors(); ++I)
    EXPECT_EQ(Copy.internFunctor(M.functorAt(I)), I);
  EXPECT_EQ(Copy.internConst(ConstOperand::integer(8)), M.numConsts());
  EXPECT_EQ(Copy.internFunctor({Syms.intern("h"), 1}), M.numFunctors());
  EXPECT_EQ(Copy.internConst(ConstOperand::integer(8)), M.numConsts());
}

// Stack safety: the compiler walks terms with explicit stacks, so term
// size is bounded by memory, not by the stack. These run under the
// default stack.

/// "[1,1,...,1]" with \p N elements.
std::string longList(int N) {
  std::string S = "[";
  for (int I = 0; I != N; ++I)
    S += I ? ",1" : "1";
  return S + "]";
}

int countOps(const CodeModule &M, Opcode Op) {
  int N = 0;
  for (int32_t A = 0; A != M.codeSize(); ++A)
    N += M.at(A).Op == Op;
  return N;
}

TEST_F(CompilerTest, MillionElementListInHeadCompiles) {
  constexpr int N = 1000000;
  Result<CompiledProgram> P =
      compileSource("p(" + longList(N) + ").", Syms, Arena);
  ASSERT_TRUE(P) << P.diag().str();
  EXPECT_EQ(countOps(*P->Module, Opcode::GetList), N);
  EXPECT_EQ(countOps(*P->Module, Opcode::UnifyConst), N + 1);
}

TEST_F(CompilerTest, MillionElementListInBodyCompiles) {
  constexpr int N = 1000000;
  Result<CompiledProgram> P = compileSource(
      "p :- q(" + longList(N) + ").\nq(_).", Syms, Arena);
  ASSERT_TRUE(P) << P.diag().str();
  EXPECT_EQ(countOps(*P->Module, Opcode::PutList), N);
  EXPECT_EQ(countOps(*P->Module, Opcode::UnifyValueX), N - 1);
}

TEST_F(CompilerTest, LongArithmeticSumCompiles) {
  constexpr int N = 100000;
  std::string S = "p(X) :- X is 1";
  for (int I = 1; I != N; ++I)
    S += "+1";
  Result<CompiledProgram> P = compileSource(S + ".", Syms, Arena);
  ASSERT_TRUE(P) << P.diag().str();
  EXPECT_EQ(countOps(*P->Module, Opcode::PutStructure), N - 1);
}

TEST_F(CompilerTest, NestedBodyStructuresBuildInnermostFirst) {
  // Post-order: g(a) and h(b) are built (left to right) before f/2, so
  // f's unify_values name their registers.
  std::string D = compilePred("p :- q(f(g(a), h(b))).\nq(_).", "p", 0);
  size_t G = D.find("put_structure       g/1");
  size_t H = D.find("put_structure       h/1");
  size_t F = D.find("put_structure       f/2");
  ASSERT_NE(G, std::string::npos) << D;
  ASSERT_NE(H, std::string::npos) << D;
  ASSERT_NE(F, std::string::npos) << D;
  EXPECT_LT(G, H) << D;
  EXPECT_LT(H, F) << D;
}

} // namespace
