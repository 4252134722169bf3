//===- examples/run_prolog.cpp - Concrete WAM runner ----------------------===//
//
// Runs a Prolog program on the concrete WAM (the substrate the paper
// reinterprets):
//
//   run_prolog (<file.pl> | bench:<name>) [<goal>] [--all] [--steps]
//
// The goal defaults to "main". With --all, all solutions are printed
// (up to 100); --steps reports executed instruction counts.
//
//===----------------------------------------------------------------------===//

#include "programs/Benchmarks.h"
#include "term/TermWriter.h"
#include "wam/Machine.h"

#include <cstdio>

using namespace awam;

int main(int argc, char **argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: run_prolog (<file.pl> | bench:<name>) [<goal>] "
                 "[--all] [--steps]\n");
    return 2;
  }
  std::string Input = argv[1];
  std::string GoalText = "main";
  bool All = false, Steps = false;
  for (int I = 2; I < argc; ++I) {
    std::string_view Arg = argv[I];
    if (Arg == "--all")
      All = true;
    else if (Arg == "--steps")
      Steps = true;
    else
      GoalText = Arg;
  }

  std::string Source, Err;
  if (!loadProgramSource(Input, Source, Err)) {
    std::fputs(Err.c_str(), stderr);
    return 1;
  }

  SymbolTable Syms;
  TermArena Arena;
  Result<CompiledProgram> Program = compileSource(Source, Syms, Arena);
  if (!Program) {
    std::fprintf(stderr, "error: %s\n", Program.diag().str().c_str());
    return 1;
  }

  Parser GoalParser(GoalText, Syms, Arena);
  Result<const Term *> Goal = GoalParser.readTerm();
  if (!Goal || !*Goal) {
    std::fprintf(stderr, "bad goal '%s'\n", GoalText.c_str());
    return 1;
  }
  int NumVars = GoalParser.lastTermNumVars();

  Machine M(*Program);
  std::vector<Solution> Solutions;
  TermArena SolutionArena;
  RunStatus Status =
      M.solve(*Goal, NumVars, SolutionArena, Solutions, All ? 100 : 1);

  if (!M.output().empty())
    std::fputs(M.output().c_str(), stdout);

  switch (Status) {
  case RunStatus::Error:
    std::fprintf(stderr, "error: %s\n", M.errorMessage().c_str());
    return 1;
  case RunStatus::Failure:
    std::printf("no.\n");
    break;
  case RunStatus::Halted:
    std::printf("halted.\n");
    break;
  case RunStatus::Success:
    for (const Solution &S : Solutions) {
      bool Printed = false;
      for (int I = 0; I != NumVars; ++I) {
        if (!S.Bindings[I])
          continue;
        std::printf("%s%s", Printed ? ", " : "",
                    writeTerm(S.Bindings[I], Syms).c_str());
        Printed = true;
      }
      std::printf("%s\n", Printed ? "" : "yes.");
    }
    break;
  }
  if (Steps)
    std::printf("%% %llu instructions executed\n",
                static_cast<unsigned long long>(M.stepsExecuted()));
  return 0;
}
