//===- bench/ablation_depth.cpp - Term-depth restriction ablation ---------===//
//
// Section 3 of the paper trades analysis precision for termination with a
// term-depth restriction (k = 4, as in Taylor's analyzer), and Section 7
// frames the whole system as a time/precision tradeoff. This ablation
// sweeps k and reports analysis time, executed abstract instructions,
// extension-table size and a precision proxy (how many success-pattern
// argument positions stay at the uninformative top element `any`).
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "support/StringUtil.h"

#include <cstdio>

using namespace awam;
using namespace awam::bench;

namespace {

/// Counts argument positions whose success type is `any` (less is more
/// precise) and all argument positions, across the table.
void precisionProxy(const AnalysisResult &R, int &AnyArgs, int &TotalArgs) {
  for (const AnalysisResult::Item &I : R.Items) {
    if (!I.Success)
      continue;
    for (int32_t Root : I.Success->Roots) {
      ++TotalArgs;
      if (I.Success->Nodes[Root].K == PatKind::AnyP)
        ++AnyArgs;
    }
  }
}

} // namespace

int main(int argc, char **argv) {
  double MinTotalMs = argc > 1 ? std::atof(argv[1]) : 50.0;
  std::printf("Ablation A1: term-depth restriction k (paper uses k = 4)\n\n");

  TextTable T({"k", "time(ms, all benchmarks)", "Exec", "ET entries",
               "any-typed args", "total args"});

  for (int K : {1, 2, 3, 4, 6, 8}) {
    AnalyzerOptions Options;
    Options.DepthLimit = K;
    double TotalMs = 0;
    uint64_t TotalExec = 0;
    size_t Entries = 0;
    int AnyArgs = 0, TotalArgs = 0;
    for (const BenchmarkProgram &B : benchmarkPrograms()) {
      PreparedBenchmark P = prepare(B);
      AnalysisSession A(*P.Compiled, Options);
      Result<AnalysisResult> R = A.analyze(B.EntrySpec);
      if (!R) {
        std::fprintf(stderr, "%s (k=%d): %s\n",
                     std::string(B.Name).c_str(), K,
                     R.diag().str().c_str());
        continue;
      }
      TotalExec += R->Counters.Instructions;
      Entries += R->Items.size();
      precisionProxy(*R, AnyArgs, TotalArgs);
      TotalMs += measureMs(
          [&] {
            AnalysisSession A2(*P.Compiled, Options);
            (void)A2.analyze(B.EntrySpec);
          },
          MinTotalMs);
    }
    T.addRow({std::to_string(K), formatDouble(TotalMs, 3),
              std::to_string(TotalExec), std::to_string(Entries),
              std::to_string(AnyArgs), std::to_string(TotalArgs)});
  }
  std::fputs(T.str().c_str(), stdout);
  std::printf("\nSmaller k widens terms earlier: faster convergence, "
              "fewer/more-general patterns,\nmore `any`-typed results. "
              "Large k costs time without further precision on this\n"
              "suite — the paper's k = 4 sits at the knee.\n");
  return 0;
}
