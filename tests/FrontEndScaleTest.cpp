//===- tests/FrontEndScaleTest.cpp - Front-end growth and allocation gates ===//
//
// The front end's cost has to stay flat in the size of the program:
//   * one predicate of many clauses (a fact table with distinct first
//     arguments) compiles and specializes at a cost per clause within
//     1.3x from 1k to 32k facts, and its switch_on_constant holds one
//     case per fact, in key order, each entering its own clause;
//   * parsing, compiling and linking a generated two-unit corpus makes at
//     most 3 heap allocations per clause, counted by the operator new
//     AllocCounter.cpp defines for this executable.
//
// Times are this thread's CPU time. The timing and allocation bounds are
// asserted only in builds without sanitizers, which slow each size by
// different factors and bring their own allocator.
//
//===----------------------------------------------------------------------===//

#include "AllocCounter.h"
#include "RandomProgramGen.h"

#include "compiler/ModuleLink.h"
#include "compiler/Specializer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <ctime>

#ifdef __GLIBC__
#include <malloc.h>
#endif

using namespace awam;
using testalloc::Counting;
using testalloc::NumAllocs;
using testenv::kSanitized;

namespace {

/// One predicate of \p N facts f(k0, 0). f(k1, 1). ...
std::string factTable(int N) {
  std::string Src;
  for (int I = 0; I != N; ++I)
    Src += "f(k" + std::to_string(I) + ", " + std::to_string(I) + ").\n";
  return Src;
}

/// CPU time of this thread in seconds: time the host spends running other
/// work does not count.
double threadSeconds() {
  timespec T;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &T);
  return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_nsec) * 1e-9;
}

/// A parsed fact table and the best compile and specialize times seen.
struct TimedTable {
  explicit TimedTable(int N) : N(N), Src(factTable(N)) {
    Parsed = parseProgram(Src, Syms, Arena);
  }
  int N;
  std::string Src;
  SymbolTable Syms;
  TermArena Arena;
  Result<ParsedProgram> Parsed = makeError("not parsed");
  double CompileUs = 1e30;    ///< per clause
  double SpecializeUs = 1e30; ///< per clause

  void run() {
    ASSERT_TRUE(Parsed) << Parsed.diag().str();
    double T0 = threadSeconds();
    Result<CompiledProgram> P = compileProgram(*Parsed, Syms);
    CompileUs = std::min(CompileUs, (threadSeconds() - T0) * 1e6 / N);
    ASSERT_TRUE(P) << P.diag().str();
    SpecializationReport Report;
    T0 = threadSeconds();
    CompiledProgram S = specializeProgram(*P, SpecializationFacts{}, Report);
    SpecializeUs = std::min(SpecializeUs, (threadSeconds() - T0) * 1e6 / N);
    EXPECT_EQ(S.Module->predicate(0).Clauses.size(), size_t(N));
  }

  /// One untimed run, which grows the heap to what this size needs (the
  /// 32k table's first run takes about 1,800 page faults), so that the
  /// timed runs all reuse its pages.
  void warmUp() {
    run();
    CompileUs = SpecializeUs = 1e30;
  }
};

TEST(FrontEndScaleTest, FactTableCompilesAtAFlatCostPerClause) {
#ifdef __GLIBC__
  // Keep freed memory in the heap. Otherwise glibc hands a large table's
  // buffers back to the kernel after each run and the next run pays the
  // page faults again, while a small table's runs reuse warm heap pages:
  // the comparison would be of the allocator's policy, not of the front
  // end's work per clause.
  mallopt(M_MMAP_THRESHOLD, 256 << 20);
  mallopt(M_TRIM_THRESHOLD, 512 << 20);
#endif
  // The minimum of 3 runs per size, the sizes alternating so that a slow
  // spell of the host lands on both.
  TimedTable Small(1000), Large(32000);
  Small.warmUp();
  Large.warmUp();
  for (int Run = 0; Run != 3; ++Run) {
    Small.run();
    Large.run();
  }
  const double CompileRatio = Large.CompileUs / Small.CompileUs;
  const double SpecializeRatio = Large.SpecializeUs / Small.SpecializeUs;
  std::printf("compile us/clause %.3f at 1k, %.3f at 32k (%.2fx); "
              "specialize us/clause %.3f at 1k, %.3f at 32k (%.2fx)\n",
              Small.CompileUs, Large.CompileUs, CompileRatio,
              Small.SpecializeUs, Large.SpecializeUs, SpecializeRatio);
  if (kSanitized)
    GTEST_SKIP() << "timing bounds hold only without sanitizers";
  EXPECT_LE(CompileRatio, 1.3);
  EXPECT_LE(SpecializeRatio, 1.3);
}

/// Checks that \p M's predicate f/2, N facts with distinct first
/// arguments, dispatches a constant through one case per fact.
void expectOneCasePerFact(const CodeModule &M, SymbolTable &Syms, int N) {
  int32_t Pid = M.findPredicate(Syms.lookup("f"), 2);
  ASSERT_GE(Pid, 0);
  const PredicateInfo &P = M.predicate(Pid);
  ASSERT_EQ(P.Clauses.size(), size_t(N));
  const Instruction &Entry = M.at(P.IndexEntry);
  ASSERT_EQ(Entry.Op, Opcode::SwitchOnTerm);
  const TermSwitch &TS = M.termSwitchAt(Entry.A);
  EXPECT_EQ(TS.OnList, kFailTarget);
  EXPECT_EQ(TS.OnStruct, kFailTarget);
  const Instruction &OnConst = M.at(TS.OnConst);
  ASSERT_EQ(OnConst.Op, Opcode::SwitchOnConstant);
  const ValueSwitch &VS = M.valueSwitchAt(OnConst.A);
  EXPECT_EQ(VS.Default, kFailTarget);
  ASSERT_EQ(VS.Cases.size(), size_t(N));
  int Bad = 0;
  for (int I = 0; I != N; ++I) {
    auto [Key, Target] = VS.Cases[I];
    Bad += I != 0 && VS.Cases[I - 1].first >= Key;
    Bad += M.constAt(Key) !=
           ConstOperand::atom(Syms.lookup("k" + std::to_string(I)));
    Bad += Target != P.Clauses[I].Entry;
  }
  EXPECT_EQ(Bad, 0);
}

TEST(FrontEndScaleTest, FactTableSwitchHasOneCasePerFactInKeyOrder) {
  constexpr int N = 32000;
  std::string Src = factTable(N);
  SymbolTable Syms;
  TermArena Arena;
  Result<CompiledProgram> P = compileSource(Src, Syms, Arena);
  ASSERT_TRUE(P) << P.diag().str();
  expectOneCasePerFact(*P->Module, Syms, N);
  SpecializationReport Report;
  CompiledProgram S = specializeProgram(*P, SpecializationFacts{}, Report);
  expectOneCasePerFact(*S.Module, Syms, N);
}

TEST(FrontEndScaleTest, FrontEndAllocatesAtMostThreeTimesPerClause) {
  testgen::CorpusOptions O;
  O.Clauses = 8000;
  testgen::Corpus C = testgen::generateCorpus(1, O);
  SymbolTable Syms;
  TermArena Arena;
  NumAllocs = 0;
  Counting = true;
  Result<ParsedProgram> LibP = parseProgram(C.Library, Syms, Arena);
  Result<ParsedProgram> UserP = parseProgram(C.User, Syms, Arena);
  const uint64_t AfterParse = NumAllocs;
  Result<CompiledProgram> Lib = makeError("not compiled");
  Result<CompiledProgram> User = makeError("not compiled");
  if (LibP && UserP) {
    Lib = compileProgram(*LibP, Syms);
    User = compileProgram(*UserP, Syms);
  }
  const uint64_t AfterCompile = NumAllocs;
  Result<LinkedProgram> L = makeError("not linked");
  if (Lib && User)
    L = linkPrograms({{&*Lib, "library"}, {&*User, "user"}});
  Counting = false;
  const uint64_t Total = NumAllocs;
  ASSERT_TRUE(LibP) << LibP.diag().str();
  ASSERT_TRUE(UserP) << UserP.diag().str();
  ASSERT_TRUE(Lib) << Lib.diag().str();
  ASSERT_TRUE(User) << User.diag().str();
  ASSERT_TRUE(L) << L.diag().str();
  const double Clauses =
      static_cast<double>(LibP->Clauses.size() + UserP->Clauses.size());
  std::printf("allocations per clause over %.0f clauses: parse %.2f, "
              "compile %.2f, link %.2f, total %.2f\n",
              Clauses, AfterParse / Clauses,
              (AfterCompile - AfterParse) / Clauses,
              (Total - AfterCompile) / Clauses, Total / Clauses);
  if (kSanitized)
    GTEST_SKIP() << "allocations are counted only without sanitizers";
  EXPECT_LE(Total / Clauses, 3.0);
}

} // namespace
