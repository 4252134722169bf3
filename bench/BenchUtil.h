//===- bench/BenchUtil.h - Shared harness helpers ---------------*- C++ -*-===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the table/figure reproduction binaries: compiling a
/// benchmark, timing both analyzers with the paper's measurement protocol
/// (averaging repeated runs), and the paper's reference numbers.
///
//===----------------------------------------------------------------------===//

#ifndef AWAM_BENCH_BENCHUTIL_H
#define AWAM_BENCH_BENCHUTIL_H

#include "analyzer/Session.h"
#include "baseline/MetaAnalyzer.h"
#include "baseline/PrologHosted.h"
#include "programs/Benchmarks.h"
#include "support/Timer.h"
#include "wam/Machine.h"

#include <cstdio>
#include <memory>
#include <string>

namespace awam::bench {

/// A benchmark compiled and parsed once, ready for repeated analysis runs.
struct PreparedBenchmark {
  const BenchmarkProgram *Program = nullptr;
  std::unique_ptr<SymbolTable> Syms;
  std::unique_ptr<TermArena> Arena;
  std::unique_ptr<ParsedProgram> Parsed;
  std::unique_ptr<CompiledProgram> Compiled;
  double ParseMs = 0;   ///< parse time (one-shot)
  double CompileMs = 0; ///< compile time (the Table 1 "PLM" column role)
};

/// Parses and compiles \p B; aborts the process with a message on failure
/// (bench binaries are tools; ExitOnError-style handling keeps them
/// straight-line).
inline PreparedBenchmark prepare(const BenchmarkProgram &B) {
  PreparedBenchmark Out;
  Out.Program = &B;
  Out.Syms = std::make_unique<SymbolTable>();
  Out.Arena = std::make_unique<TermArena>();

  Timer T;
  Result<ParsedProgram> Parsed =
      parseProgram(B.Source, *Out.Syms, *Out.Arena);
  Out.ParseMs = T.elapsedMs();
  if (!Parsed) {
    std::fprintf(stderr, "%s: parse error: %s\n",
                 std::string(B.Name).c_str(), Parsed.diag().str().c_str());
    std::exit(1);
  }
  Out.Parsed = std::make_unique<ParsedProgram>(Parsed.take());

  T.reset();
  Result<CompiledProgram> Compiled = compileProgram(*Out.Parsed, *Out.Syms);
  Out.CompileMs = T.elapsedMs();
  if (!Compiled) {
    std::fprintf(stderr, "%s: compile error: %s\n",
                 std::string(B.Name).c_str(),
                 Compiled.diag().str().c_str());
    std::exit(1);
  }
  Out.Compiled = std::make_unique<CompiledProgram>(Compiled.take());
  return Out;
}

/// One benchmark's measurements for Table 1.
struct Table1Row {
  std::string Name;
  int Args = 0;
  int Preds = 0;
  /// Prolog-hosted analyzer on the concrete WAM (the faithful Aquarius
  /// stand-in; 0 when not measured).
  double HostedMs = 0;
  double BaselineMs = 0; ///< C++ meta-interpreting analyzer (equal host)
  double CompileMs = 0;  ///< our compiler (PLM column role)
  int CodeSize = 0;      ///< static WAM instructions
  uint64_t Exec = 0;     ///< abstract WAM instructions executed
  double OursMs = 0;     ///< compiled abstract WAM analysis time
  double SpeedUp = 0;         ///< HostedMs / OursMs
  double EqualHostSpeedUp = 0; ///< BaselineMs / OursMs
};

/// Runs the analyzers on \p P with the paper's protocol (averaged over
/// repeated runs, warm-up excluded) and fills a Table1Row. When
/// \p WithHosted is set, also times the Prolog-hosted analyzer (needs a
/// fresh symbol table per run, so it is measured on its own copies).
inline Table1Row measureBenchmark(const PreparedBenchmark &P,
                                  AnalyzerOptions Options = {},
                                  double MinTotalMs = 200.0,
                                  bool WithHosted = true) {
  Table1Row Row;
  Row.Name = std::string(P.Program->Name);
  Row.Args = P.Compiled->NumArgs;
  Row.Preds = P.Compiled->NumPreds;
  Row.CompileMs = P.CompileMs;
  Row.CodeSize = P.Compiled->Module->codeSize();

  std::string_view Spec = P.Program->EntrySpec;

  // Compiled analyzer.
  {
    AnalysisSession A(*P.Compiled, Options);
    Result<AnalysisResult> R = A.analyze(Spec);
    if (!R) {
      std::fprintf(stderr, "%s: analysis error: %s\n", Row.Name.c_str(),
                   R.diag().str().c_str());
      std::exit(1);
    }
    // Exec for one full analysis (all iterations of a fresh run).
    Row.Exec = R->Counters.Instructions;
    Row.OursMs = measureMs(
        [&] {
          AnalysisSession A2(*P.Compiled, Options);
          (void)A2.analyze(Spec);
        },
        MinTotalMs);
  }

  // Baseline meta-interpreting analyzer (equal-host ablation), fresh per
  // run like the compiled analyzer's session.
  Row.BaselineMs = measureMs(
      [&] {
        MetaAnalyzer B(*P.Parsed, *P.Syms, Options);
        (void)B.analyze(Spec);
      },
      MinTotalMs);

  // Prolog-hosted analyzer running on the concrete WAM (the faithful
  // baseline). The hosted program is compiled once; the timed part is the
  // analysis run, matching how the Aquarius timings excluded preprocessing.
  if (WithHosted) {
    std::string Source =
        reflectProgram(*P.Parsed, *P.Syms, "main") +
        std::string(prologAnalyzerSource());
    SymbolTable HostSyms;
    TermArena HostArena;
    Result<ParsedProgram> HostParsed =
        parseProgram(Source, HostSyms, HostArena);
    Result<CompiledProgram> HostCompiled =
        HostParsed ? compileProgram(*HostParsed, HostSyms)
                   : Result<CompiledProgram>(HostParsed.diag());
    if (HostCompiled) {
      Machine M(*HostCompiled);
      Parser GoalParser("analyze_main(_)", HostSyms, HostArena);
      Result<const Term *> Goal = GoalParser.readTerm();
      int NumVars = GoalParser.lastTermNumVars();
      Row.HostedMs = measureMs(
          [&] {
            TermArena SolArena;
            std::vector<Solution> Sols;
            (void)M.solve(*Goal, NumVars, SolArena, Sols, 1);
          },
          MinTotalMs);
    } else {
      std::fprintf(stderr, "%s: hosted analyzer unavailable: %s\n",
                   Row.Name.c_str(), HostCompiled.diag().str().c_str());
    }
  }

  Row.EqualHostSpeedUp = Row.OursMs > 0 ? Row.BaselineMs / Row.OursMs : 0;
  Row.SpeedUp = Row.OursMs > 0 ? Row.HostedMs / Row.OursMs : 0;
  return Row;
}

/// Paper Table 1 reference values (for side-by-side comparison).
struct PaperTable1Ref {
  std::string_view Name;
  int Args;
  int Preds;
  double AquariusSec;
  double PlmSec;
  int Size;
  int Exec;
  double OursMsec;
  int SpeedUp;
};

inline constexpr PaperTable1Ref PaperTable1[] = {
    {"log10", 3, 2, 2.9, 4.5, 179, 749, 38.6, 75},
    {"ops8", 3, 2, 3.0, 4.5, 180, 400, 23.3, 129},
    {"times10", 3, 2, 3.0, 4.5, 186, 971, 48.4, 62},
    {"divide10", 3, 2, 2.9, 4.6, 186, 1043, 50.7, 57},
    {"tak", 4, 2, 2.3, 1.2, 53, 110, 4.0, 575},
    {"nreverse", 5, 3, 2.2, 1.6, 99, 479, 26.7, 82},
    {"qsort", 7, 3, 3.4, 2.5, 164, 763, 44.0, 77},
    {"query", 7, 5, 4.2, 4.3, 264, 626, 25.8, 163},
    {"zebra", 9, 5, 3.5, 7.5, 271, 1262, 257.9, 14},
    {"serialise", 16, 7, 4.2, 3.6, 205, 912, 53.4, 79},
    {"queens_8", 16, 7, 6.0, 3.1, 117, 324, 16.5, 364},
};

/// Finds the paper row for a benchmark (nullptr if absent).
inline const PaperTable1Ref *paperRow(std::string_view Name) {
  for (const PaperTable1Ref &R : PaperTable1)
    if (R.Name == Name)
      return &R;
  return nullptr;
}

} // namespace awam::bench

#endif // AWAM_BENCH_BENCHUTIL_H
