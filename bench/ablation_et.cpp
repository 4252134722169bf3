//===- bench/ablation_et.cpp - Extension-table structure ablation ---------===//
//
// Section 6: "The extension table is implemented as a linear list of
// (calling-pattern, success-pattern) pairs." This ablation compares that
// implementation with a hashed table: per benchmark, analysis time and
// pattern-comparison probes for both.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "support/StringUtil.h"

#include <cstdio>

using namespace awam;
using namespace awam::bench;

int main(int argc, char **argv) {
  double MinTotalMs = argc > 1 ? std::atof(argv[1]) : 50.0;
  std::printf("Ablation A2: extension-table lookup structure\n\n");

  TextTable T({"Benchmark", "linear(ms)", "hash(ms)", "linear probes",
               "hash probes", "entries"});

  for (const BenchmarkProgram &B : benchmarkPrograms()) {
    PreparedBenchmark P = prepare(B);

    AnalyzerOptions Linear;
    Linear.TableImpl = ExtensionTable::Impl::LinearList;
    AnalyzerOptions Hash;
    Hash.TableImpl = ExtensionTable::Impl::HashMap;

    AnalysisSession AL(*P.Compiled, Linear);
    Result<AnalysisResult> RL = AL.analyze(B.EntrySpec);
    AnalysisSession AH(*P.Compiled, Hash);
    Result<AnalysisResult> RH = AH.analyze(B.EntrySpec);
    if (!RL || !RH) {
      std::fprintf(stderr, "%s: analysis error\n",
                   std::string(B.Name).c_str());
      continue;
    }

    double LinMs = measureMs(
        [&] {
          AnalysisSession A(*P.Compiled, Linear);
          (void)A.analyze(B.EntrySpec);
        },
        MinTotalMs);
    double HashMs = measureMs(
        [&] {
          AnalysisSession A(*P.Compiled, Hash);
          (void)A.analyze(B.EntrySpec);
        },
        MinTotalMs);

    T.addRow({std::string(B.Name), formatDouble(LinMs, 3),
              formatDouble(HashMs, 3), std::to_string(RL->Counters.ETProbes),
              std::to_string(RH->Counters.ETProbes),
              std::to_string(RL->Items.size())});
  }
  std::fputs(T.str().c_str(), stdout);
  std::printf("\nThe tables are small on this suite, which is why the "
              "paper's linear list is\nadequate; the hashed variant wins "
              "only as the number of calling patterns grows.\n");
  return 0;
}
