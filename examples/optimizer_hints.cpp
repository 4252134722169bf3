//===- examples/optimizer_hints.cpp - Using the analysis downstream -------===//
//
// The paper's motivation (Section 1): mode/type/aliasing information
// enables "substantial optimizations" — removal of dereferencing and
// trailing [Taylor 89], clause-selection specialization, first-argument
// indexing improvements, and And-Parallelism.
//
// This example closes that loop through the same adapter the real
// specializer uses (analyzer/Specialize.h): it analyzes a program under
// every registered abstract domain and
//
//   * under "modes", joins the per-predicate argument facts
//     (buildSpecializationFacts) and annotates each head instruction with
//     the rewrite the facts license:
//       - argument always nonvar -> get_* can drop its write-mode branch
//       - argument always ground -> unification below it needs no
//         trailing and no dereferencing past the first cell
//       - argument always free   -> get_* can drop its read-mode branch
//         (pure construction)
//   * under "det" / "pos", prints the domain's own fact report
//     (determinism classes, groundness dependencies) via the registry —
//     the facts the specializer's choice-point rewrites and the
//     reader's groundness reasoning consume.
//
// The full rewriting pass these hints preview is analyze_file --optimize
// (src/compiler/Specializer.h).
//
//   optimizer_hints [bench-name] [domain ...]   (default: qsort, all)
//
//===----------------------------------------------------------------------===//

#include "analyzer/Domain.h"
#include "analyzer/Session.h"
#include "analyzer/Specialize.h"
#include "compiler/Disasm.h"
#include "compiler/Specializer.h"
#include "programs/Benchmarks.h"

#include <cstdio>

using namespace awam;

namespace {

/// Prints the mode-domain hints: per-argument licenses plus annotated
/// head instructions, both derived from the specializer's fact adapter.
void printModeHints(const AnalysisResult &R, const CompiledProgram &Program) {
  CodeModule &M = *Program.Module;
  SpecializationFacts Facts = buildSpecializationFacts(R, Program);
  for (int32_t Pid = 0; Pid != static_cast<int32_t>(Facts.Preds.size());
       ++Pid) {
    const PredSpecFacts &P = Facts.Preds[Pid];
    if (!P.Analyzed)
      continue;
    std::printf("%s:\n", M.predicateLabel(Pid).c_str());
    for (size_t Arg = 0; Arg != P.Args.size(); ++Arg) {
      const ArgSpecFacts &F = P.Args[Arg];
      std::string Hints;
      if (F.KnownGround)
        Hints += " drop-trailing drop-deep-deref";
      if (F.KnownNonvar)
        Hints += " drop-write-mode";
      if (F.KnownFree)
        Hints += " drop-read-mode construct-only";
      if (Hints.empty())
        Hints = " (general unification required)";
      std::printf("  A%zu:%s\n", Arg + 1, Hints.c_str());
    }
    // Annotate the head instructions of each clause.
    const PredicateInfo &Pred = M.predicate(Pid);
    for (const ClauseInfo &C : Pred.Clauses) {
      for (int32_t PC = C.Entry; PC != C.Entry + C.NumInstr; ++PC) {
        const Instruction &I = M.at(PC);
        int ArgReg = -1;
        if (I.Op == Opcode::GetConst || I.Op == Opcode::GetStructure ||
            I.Op == Opcode::GetVariableX || I.Op == Opcode::GetVariableY)
          ArgReg = I.B;
        else if (I.Op == Opcode::GetList)
          ArgReg = I.A;
        else
          continue;
        if (ArgReg < 0 || ArgReg >= static_cast<int>(P.Args.size()))
          continue;
        const ArgSpecFacts &F = P.Args[ArgReg];
        if (!F.KnownNonvar && !F.KnownGround && !F.KnownFree)
          continue;
        std::printf("    @%d %-40s %% %s\n", PC,
                    disassembleInstruction(M, I).c_str(),
                    F.KnownGround   ? "read-mode only, no trail"
                    : F.KnownNonvar ? "read-mode only"
                                    : "write-mode only");
      }
    }
  }
}

} // namespace

int main(int argc, char **argv) {
  std::string BenchName = argc > 1 ? argv[1] : "qsort";
  const BenchmarkProgram *B = findBenchmark(BenchName);
  if (!B) {
    std::fprintf(stderr, "unknown benchmark '%s'\n", BenchName.c_str());
    return 1;
  }
  std::vector<std::string> Domains(argv + std::min(argc, 2), argv + argc);
  if (Domains.empty())
    Domains = {"modes", "det", "pos"};
  for (const std::string &D : Domains)
    if (Result<const Domain *> Dom = resolveDomain(D); !Dom) {
      std::fprintf(stderr, "error: %s\n", Dom.diag().str().c_str());
      return 1;
    }

  SymbolTable Syms;
  TermArena Arena;
  Result<CompiledProgram> Program = compileSource(B->Source, Syms, Arena);
  if (!Program) {
    std::fprintf(stderr, "error: %s\n", Program.diag().str().c_str());
    return 1;
  }

  std::printf("Specialization hints for '%s' (entry %s)\n",
              BenchName.c_str(), std::string(B->EntrySpec).c_str());

  for (const std::string &DomainName : Domains) {
    std::printf("\n== domain %s ==\n", DomainName.c_str());
    // A session per domain: its store outlives the query, so an optimizer
    // asking about several entry points (or re-asking after an edit via
    // reanalyze) pays the fixpoint once and warm-starts every follow-up.
    // Each result is still byte-identical to a from-scratch analysis.
    AnalyzerOptions Options;
    Options.DomainName = DomainName;
    AnalysisSession A(*Program, Options);
    Result<AnalysisResult> R = A.analyze(B->EntrySpec);
    if (!R) {
      std::fprintf(stderr, "analysis error: %s\n", R.diag().str().c_str());
      return 1;
    }
    if (DomainName == "modes")
      printModeHints(*R, *Program);
    // The domain's own fact report (determinism classes under "det",
    // groundness dependencies under "pos"; "modes" renders nothing here).
    if (R->Dom)
      std::fputs(R->Dom->formatFacts(*R, *Program).c_str(), stdout);
  }
  return 0;
}
