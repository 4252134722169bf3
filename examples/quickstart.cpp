//===- examples/quickstart.cpp - Library quickstart -----------------------===//
//
// Minimal tour of the public API:
//   1. parse a Prolog program,
//   2. compile it to WAM code,
//   3. run a query on the concrete machine,
//   4. run the compiled dataflow analysis and print the inferred
//      mode/type information,
//   5. ask a second question of the same session — its store warm-starts
//      it from the first query's memoized summaries.
//
//===----------------------------------------------------------------------===//

#include "analyzer/Session.h"
#include "term/TermWriter.h"
#include "wam/Machine.h"

#include <cstdio>

using namespace awam;

int main() {
  const char *Source =
      "app([], L, L).\n"
      "app([H|T], L, [H|R]) :- app(T, L, R).\n"
      "nrev([], []).\n"
      "nrev([H|T], R) :- nrev(T, RT), app(RT, [H], R).\n";

  // 1. + 2. Parse and compile.
  SymbolTable Syms;
  TermArena Arena;
  Result<CompiledProgram> Program = compileSource(Source, Syms, Arena);
  if (!Program) {
    std::fprintf(stderr, "error: %s\n", Program.diag().str().c_str());
    return 1;
  }

  // 3. Run a query on the concrete WAM.
  Machine M(*Program);
  Parser GoalParser("nrev([1,2,3,4,5], R)", Syms, Arena);
  Result<const Term *> Goal = GoalParser.readTerm();
  std::vector<Solution> Solutions;
  TermArena SolutionArena;
  RunStatus Status = M.solve(*Goal, GoalParser.lastTermNumVars(),
                             SolutionArena, Solutions, 1);
  if (Status == RunStatus::Success)
    std::printf("?- nrev([1,2,3,4,5], R).\nR = %s\n\n",
                writeTerm(Solutions[0].Bindings[0], Syms).c_str());

  // 4. Analyze: what happens when nrev is called with a ground list and a
  // free result variable? A session keeps its analysis store alive
  // between queries, so this is also how a long-lived service would hold
  // the analyzer.
  AnalysisSession A(*Program);
  Result<AnalysisResult> R = A.analyze("nrev(glist, var)");
  if (!R) {
    std::fprintf(stderr, "analysis error: %s\n", R.diag().str().c_str());
    return 1;
  }
  std::printf("%s\n", formatAnalysis(*R, Syms).c_str());
  std::printf("%s", formatModes(*R, Syms).c_str());

  // 5. A second question against the warm store. The nrev query above
  // already tabled every app summary this entry needs, so the drain
  // replays those memo hits instead of re-running the abstract machine —
  // while the report stays byte-identical to a from-scratch analysis.
  Result<AnalysisResult> R2 = A.analyze("app(glist, glist, var)");
  if (!R2) {
    std::fprintf(stderr, "analysis error: %s\n", R2.diag().str().c_str());
    return 1;
  }
  std::printf("\n%s", formatModes(*R2, Syms).c_str());
  return 0;
}
