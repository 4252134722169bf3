//===- tests/ReportAllocationTest.cpp - Report rendering allocation gate --===//
//
// A report is rendered in one pass into one buffer: the pattern table's
// cells share one text buffer, the printer reuses its scratch, and the
// output is reserved once. So formatReport in pattern form allocates a
// number of times that grows only with the logarithm of the report's
// size: at most 64 for every Table 1 program and for the service
// workload's linked corpus at drive/1 (684 rows), counted by the
// operator new AllocCounter.cpp defines for this executable. The bound is
// asserted only in builds without sanitizers, which bring their own
// allocator.
//
//===----------------------------------------------------------------------===//

#include "AllocCounter.h"
#include "RandomProgramGen.h"

#include "analyzer/Session.h"
#include "compiler/ModuleLink.h"
#include "programs/Benchmarks.h"

#include <gtest/gtest.h>

using namespace awam;

namespace {

constexpr uint64_t kMaxAllocations = 64;

/// Heap allocations made by formatReport(R, P) in pattern form.
uint64_t reportAllocations(const AnalysisResult &R,
                           const CompiledProgram &P, size_t &Bytes) {
  testalloc::NumAllocs = 0;
  testalloc::Counting = true;
  std::string Report = formatReport(R, P, /*Modes=*/false);
  testalloc::Counting = false;
  Bytes = Report.size();
  return testalloc::NumAllocs;
}

TEST(ReportAllocationTest, Table1ReportsAllocateABoundedNumberOfTimes) {
  for (const BenchmarkProgram &B : benchmarkPrograms()) {
    SymbolTable Syms;
    TermArena Arena;
    Result<CompiledProgram> P = compileSource(B.Source, Syms, Arena);
    ASSERT_TRUE(P) << B.Name << ": " << P.diag().str();
    AnalysisSession S(*P);
    Result<AnalysisResult> R = S.analyze(B.EntrySpec);
    ASSERT_TRUE(R) << B.Name << ": " << R.diag().str();
    size_t Bytes = 0;
    const uint64_t N = reportAllocations(*R, *P, Bytes);
    std::printf("%-10s %3zu rows %6zu bytes %3llu allocations\n",
                std::string(B.Name).c_str(), R->Items.size(), Bytes,
                static_cast<unsigned long long>(N));
    if (!testenv::kSanitized) {
      EXPECT_LE(N, kMaxAllocations) << B.Name;
    }
  }
  if (testenv::kSanitized)
    GTEST_SKIP() << "allocations are counted only without sanitizers";
}

TEST(ReportAllocationTest, CorpusReportAllocatesABoundedNumberOfTimes) {
  testgen::CorpusOptions CO;
  CO.Clauses = 1200;
  testgen::Corpus C = testgen::generateCorpus(3, CO);
  SymbolTable Syms;
  TermArena Arena;
  Result<CompiledProgram> Lib = compileSource(C.Library, Syms, Arena);
  ASSERT_TRUE(Lib) << Lib.diag().str();
  Result<CompiledProgram> User = compileSource(C.User, Syms, Arena);
  ASSERT_TRUE(User) << User.diag().str();
  Result<LinkedProgram> L =
      linkPrograms({{&*Lib, "library"}, {&*User, "user"}});
  ASSERT_TRUE(L) << L.diag().str();
  AnalysisSession S(L->Program);
  Result<AnalysisResult> R = S.analyze("drive/1");
  ASSERT_TRUE(R) << R.diag().str();
  size_t Bytes = 0;
  const uint64_t N = reportAllocations(*R, L->Program, Bytes);
  std::printf("corpus %zu rows %zu bytes %llu allocations\n",
              R->Items.size(), Bytes, static_cast<unsigned long long>(N));
  if (testenv::kSanitized)
    GTEST_SKIP() << "allocations are counted only without sanitizers";
  EXPECT_LE(N, kMaxAllocations);
}

} // namespace
