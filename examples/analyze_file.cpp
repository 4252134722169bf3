//===- examples/analyze_file.cpp - Command-line dataflow analyzer ---------===//
//
// The full analyzer as a tool:
//
//   analyze_file (<file.pl> | bench:<name>) [options]
//
//   --lib MOD.pl   compile MOD.pl (or bench:<name>) as a separate library
//                  unit and link it with the main input before analysis;
//                  repeatable (units link in flag order, main input last).
//                  Duplicate definitions across units are link errors;
//                  imports left unresolved after linking warn with the
//                  near-miss diagnostic and fail at runtime like any
//                  undefined predicate. The linked program is
//                  observationally identical to compiling the
//                  concatenated sources.
//   --export-summaries FILE
//                  after analysis, serialize the session store's replay
//                  traces, with the code hash of each predicate they use,
//                  to FILE (module-independent bundle; see
//                  analyzer/SummaryBundle.h).
//   --import-summaries FILE
//                  before analysis, load a bundle exported earlier and
//                  bank its still-valid traces as warm-start hints.
//                  Stale or unresolvable traces are dropped (counts on
//                  stderr); answers are byte-identical to a run without
//                  the import.
//   --entry SPEC   entry goal, e.g. "main" or "qsort(glist, var, var)"
//                  (default: main). Repeatable: with several entries the
//                  queries share one analysis store — later entries
//                  warm-start from the table work of earlier ones, and
//                  each report is byte-identical to a single-entry run of
//                  that spec (the CI batch gate diffs exactly this).
//   --entries FILE batch file of entry specs, one per line; blank lines
//                  and lines starting with '#' are skipped. Combines with
//                  --entry (file specs run after the flag specs). All
//                  specs are validated before any analysis runs.
//   --depth K      term-depth restriction (default 4, K >= 1)
//   --edit P/A     mark predicate P/A edited and re-analyze incrementally
//                  after the initial run; repeatable (one chained
//                  reanalyze per flag). Each re-analysis runs on the
//                  session's store and replays the recorded runs the edit
//                  left valid. The final report is byte-identical to the
//                  plain run — the CI incremental gate diffs it.
//   --domain NAME  abstract domain to analyze under (default "modes", the
//                  paper's mode/type/aliasing domain; "pos" infers
//                  groundness dependencies, "det" derives per-predicate
//                  determinism facts). Unknown names are rejected with the
//                  registered list.
//   --wam          print the compiled WAM code
//   --modes        print the mode report (default prints patterns)
//   --optimize     specialize the compiled code with the analysis facts
//                  and print the rewrite report plus the annotated
//                  listing (requires the compiled worklist analyzer and
//                  the "modes" or "det" domain). Works in every session
//                  shape: single entries, --edit chains (facts come from
//                  the final incremental result) and --entries batches
//                  (facts are joined across every entry's table).
//   --baseline     use the meta-interpreting analyzer instead
//   --trace        print the extension-table control trace
//   --dead         report predicates unreachable from the entry goal
//
// Unknown --flags are rejected with the offending name; this header, the
// usage string and the parser below list exactly the same option set.
//
//===----------------------------------------------------------------------===//

#include "analyzer/AbstractMachine.h"
#include "analyzer/Domain.h"
#include "analyzer/Session.h"
#include "analyzer/Specialize.h"
#include "baseline/MetaAnalyzer.h"
#include "compiler/Disasm.h"
#include "compiler/ModuleLink.h"
#include "compiler/Specializer.h"
#include "programs/Benchmarks.h"
#include "support/StringUtil.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace awam;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: analyze_file (<file.pl> | bench:<name>) [--lib MOD.pl]... "
      "[--entry SPEC]...\n                    [--entries FILE] "
      "[--export-summaries FILE] [--import-summaries FILE]\n"
      "                    [--depth K] [--edit P/A]... [--domain NAME] "
      "[--wam] [--modes]\n                    [--optimize] [--baseline] "
      "[--trace] [--dead]\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2)
    return usage();

  std::string Input = argv[1];
  std::vector<std::string> Libs;
  std::string ExportPath, ImportPath;
  std::vector<std::string> Entries;
  bool UsedEntriesFile = false;
  int Depth = kDefaultDepthLimit;
  bool ShowWam = false, ShowModes = false, UseBaseline = false,
       Trace = false, ShowDead = false, Optimize = false;
  std::string DomainName = "modes";
  std::vector<PredSig> Edits;
  for (int I = 2; I < argc; ++I) {
    std::string_view Arg = argv[I];
    if (Arg == "--lib" && I + 1 < argc)
      Libs.push_back(argv[++I]);
    else if (Arg == "--export-summaries" && I + 1 < argc)
      ExportPath = argv[++I];
    else if (Arg == "--import-summaries" && I + 1 < argc)
      ImportPath = argv[++I];
    else if (Arg == "--entry" && I + 1 < argc)
      Entries.push_back(argv[++I]);
    else if (Arg == "--entries" && I + 1 < argc) {
      std::ifstream EF(argv[++I]);
      if (!EF) {
        std::fprintf(stderr, "cannot open %s\n", argv[I]);
        return 1;
      }
      UsedEntriesFile = true;
      std::string Line;
      while (std::getline(EF, Line)) {
        size_t B = Line.find_first_not_of(" \t\r");
        if (B == std::string::npos)
          continue;
        size_t E = Line.find_last_not_of(" \t\r");
        Line = Line.substr(B, E - B + 1);
        if (Line[0] == '#')
          continue;
        Entries.push_back(Line);
      }
    } else if (Arg == "--depth" && I + 1 < argc) {
      if (!parseIntArg(argv[++I], 1, Depth)) {
        std::fprintf(stderr, "bad --depth '%s': expected an integer >= 1\n",
                     argv[I]);
        return usage();
      }
    } else if (Arg == "--edit" && I + 1 < argc) {
      std::optional<PredSig> Sig = parsePredSig(argv[++I]);
      if (!Sig) {
        std::fprintf(stderr, "bad --edit '%s': expected name/arity\n",
                     argv[I]);
        return usage();
      }
      Edits.push_back(std::move(*Sig));
    } else if (Arg == "--domain" && I + 1 < argc) {
      DomainName = argv[++I];
      // Validate eagerly: a typo should fail before any file is parsed,
      // with the registered-domain list in the message.
      if (Result<const Domain *> D = resolveDomain(DomainName); !D) {
        std::fprintf(stderr, "%s\n", D.diag().str().c_str());
        return usage();
      }
    } else if (Arg == "--wam")
      ShowWam = true;
    else if (Arg == "--modes")
      ShowModes = true;
    else if (Arg == "--optimize")
      Optimize = true;
    else if (Arg == "--baseline")
      UseBaseline = true;
    else if (Arg == "--trace")
      Trace = true;
    else if (Arg == "--dead")
      ShowDead = true;
    else {
      std::fprintf(stderr, "unknown option '%s'\n", argv[I]);
      return usage();
    }
  }

  // Resolves an input spec (path or bench:<name>) to Prolog source text.
  auto loadSource = [](const std::string &Spec, std::string &Out) {
    std::string Err;
    if (loadProgramSource(Spec, Out, Err))
      return true;
    std::fputs(Err.c_str(), stderr);
    return false;
  };

  std::string Source;
  if (!loadSource(Input, Source))
    return 1;

  SymbolTable Syms;
  TermArena Arena;
  Result<ParsedProgram> Parsed = parseProgram(Source, Syms, Arena);
  if (!Parsed) {
    std::fprintf(stderr, "parse error: %s\n", Parsed.diag().str().c_str());
    return 1;
  }
  Result<CompiledProgram> Compiled = compileProgram(*Parsed, Syms);
  if (!Compiled) {
    std::fprintf(stderr, "compile error: %s\n",
                 Compiled.diag().str().c_str());
    return 1;
  }

  // Separate prelude compilation: each --lib unit compiles on its own
  // (against the shared symbol table) and links with the main input,
  // which goes last so library exports resolve its imports. The linked
  // program is observationally identical to compiling the concatenated
  // sources, so everything downstream is oblivious to the split.
  if (!Libs.empty()) {
    if (UseBaseline) {
      std::fprintf(stderr, "--lib requires the compiled analyzer "
                           "(no --baseline)\n");
      return usage();
    }
    std::vector<CompiledProgram> LibUnits;
    LibUnits.reserve(Libs.size());
    for (const std::string &LibSpec : Libs) {
      std::string LibSource;
      if (!loadSource(LibSpec, LibSource))
        return 1;
      Result<CompiledProgram> LC = compileSource(LibSource, Syms, Arena);
      if (!LC) {
        std::fprintf(stderr, "%s: %s\n", LibSpec.c_str(),
                     LC.diag().str().c_str());
        return 1;
      }
      LibUnits.push_back(LC.take());
    }
    std::vector<ModuleUnit> Units;
    for (size_t I = 0; I != LibUnits.size(); ++I)
      Units.push_back({&LibUnits[I], Libs[I]});
    Units.push_back({&*Compiled, Input});
    Result<LinkedProgram> Linked = linkPrograms(Units);
    if (!Linked) {
      std::fprintf(stderr, "link error: %s\n", Linked.diag().str().c_str());
      return 1;
    }
    for (const std::string &W : Linked->UnresolvedImports)
      std::fprintf(stderr, "warning: %s\n", W.c_str());
    *Compiled = std::move(Linked->Program);
  } else {
    for (int32_t Pid : Compiled->UndefinedPredicates)
      std::fprintf(stderr, "warning: %s is called but not defined\n",
                   Compiled->Module->predicateLabel(Pid).c_str());
  }

  if (ShowWam)
    std::fputs(disassembleModule(*Compiled->Module).c_str(), stdout);

  AnalyzerOptions Options;
  Options.DepthLimit = Depth;
  Options.DomainName = DomainName;

  if (DomainName != "modes" && (UseBaseline || Trace)) {
    std::fprintf(stderr, "--domain requires the compiled worklist analyzer "
                         "(no --baseline / --trace)\n");
    return usage();
  }
  if (!Edits.empty() && (UseBaseline || Trace)) {
    std::fprintf(stderr,
                 "--edit requires the compiled worklist analyzer (no "
                 "--baseline / --trace)\n");
    return usage();
  }
  if (Optimize && (UseBaseline || Trace)) {
    std::fprintf(stderr,
                 "--optimize requires the compiled worklist analyzer (no "
                 "--baseline / --trace)\n");
    return usage();
  }
  if (std::string Err = specializationDomainError(DomainName, "--optimize");
      Optimize && !Err.empty()) {
    std::fprintf(stderr, "%s\n", Err.c_str());
    return usage();
  }
  if ((!ExportPath.empty() || !ImportPath.empty()) && (UseBaseline || Trace)) {
    std::fprintf(stderr,
                 "--export-summaries / --import-summaries require the "
                 "compiled worklist analyzer (no --baseline / --trace)\n");
    return usage();
  }

  // Loads the --import-summaries bundle into the session store before any
  // analysis runs; its surviving traces warm-start the queries below.
  auto importInto = [&](AnalysisSession &A) {
    if (ImportPath.empty())
      return true;
    std::ifstream In(ImportPath, std::ios::binary);
    if (!In) {
      std::fprintf(stderr, "cannot open %s\n", ImportPath.c_str());
      return false;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Result<AnalysisStore::ImportStats> IS = A.importSummaries(Buf.str());
    if (!IS) {
      std::fprintf(stderr, "import error: %s\n", IS.diag().str().c_str());
      return false;
    }
    std::fprintf(stderr,
                 "imported %llu/%llu traces from %s (%llu stale, %llu "
                 "unresolved dropped)\n",
                 static_cast<unsigned long long>(IS->Banked),
                 static_cast<unsigned long long>(IS->BundleTraces),
                 ImportPath.c_str(),
                 static_cast<unsigned long long>(IS->DroppedStale),
                 static_cast<unsigned long long>(IS->DroppedUnresolved));
    return true;
  };

  // Writes the session store's bundle to --export-summaries after the
  // analyses above have populated it.
  auto exportFrom = [&](AnalysisSession &A) {
    if (ExportPath.empty())
      return true;
    Result<std::string> Bytes = A.exportSummaries();
    if (!Bytes) {
      std::fprintf(stderr, "export error: %s\n", Bytes.diag().str().c_str());
      return false;
    }
    std::ofstream Out(ExportPath, std::ios::binary);
    Out.write(Bytes->data(), static_cast<std::streamsize>(Bytes->size()));
    if (!Out) {
      std::fprintf(stderr, "cannot write %s\n", ExportPath.c_str());
      return false;
    }
    std::fprintf(stderr, "exported %zu summary bytes to %s\n",
                 Bytes->size(), ExportPath.c_str());
    return true;
  };

  // Runs the analyzer-directed specializer over the compiled module and
  // prints the rewrite report plus the annotated listing. The input
  // module is never mutated — CodeModule diffs, fingerprints and the
  // analysis itself keep seeing the original stream.
  auto printOptimized = [&](const AnalysisResult &Facts) {
    SpecializationReport Rep;
    CompiledProgram Spec = specializeProgram(
        *Compiled, buildSpecializationFacts(Facts, *Compiled), Rep);
    std::fputs(formatSpecialization(*Spec.Module, Rep).c_str(), stdout);
  };

  // Batch mode: several entry goals through one store. Every spec is
  // validated before any analysis runs (analyzeBatch's contract),
  // so a typo late in an --entries file fails fast with the usual spec
  // error. The single-entry path below is untouched — the CI determinism
  // and incremental gates diff its exact output.
  if (UsedEntriesFile || Entries.size() > 1) {
    if (UseBaseline || Trace || !Edits.empty()) {
      std::fprintf(stderr, "multiple entries require the compiled worklist "
                           "analyzer (no --baseline / --trace / --edit)\n");
      return usage();
    }
    if (Entries.empty()) {
      std::fprintf(stderr, "--entries file contains no entry specs\n");
      return 1;
    }
    AnalysisSession A(*Compiled, Options);
    if (!importInto(A))
      return 1;
    Result<std::vector<AnalysisResult>> Batch = A.analyzeBatch(Entries);
    if (!Batch) {
      std::fprintf(stderr, "analysis error: %s\n",
                   Batch.diag().str().c_str());
      return 1;
    }
    for (size_t I = 0; I != Entries.size(); ++I) {
      std::printf("== entry %s ==\n", Entries[I].c_str());
      const AnalysisResult &BR = (*Batch)[I];
      std::fputs(formatReport(BR, *Compiled, ShowModes).c_str(), stdout);
      if (ShowDead)
        std::fputs(formatReachability(BR, *Compiled).c_str(), stdout);
    }
    if (Optimize) {
      // Join the facts of every entry's table: items are self-contained
      // (label + call + success), so concatenating the per-entry item
      // lists and joining per predicate yields facts sound for all
      // entries at once.
      AnalysisResult Joined;
      for (const AnalysisResult &BR : *Batch)
        Joined.Items.insert(Joined.Items.end(), BR.Items.begin(),
                            BR.Items.end());
      std::printf("== optimized ==\n");
      printOptimized(Joined);
    }
    return exportFrom(A) ? 0 : 1;
  }
  const std::string Entry = Entries.empty() ? "main" : Entries.front();

  Result<AnalysisResult> R = makeError("unreachable");
  if (UseBaseline) {
    MetaAnalyzer B(*Parsed, Syms, Options);
    R = B.analyze(Entry);
  } else if (Trace) {
    Result<std::pair<std::string, Pattern>> Spec = parseEntrySpec(Entry);
    if (!Spec) {
      std::fprintf(stderr, "%s\n", Spec.diag().str().c_str());
      return 1;
    }
    Symbol S = Syms.lookup(Spec->first);
    int32_t Pid =
        S == ~0u ? -1
                 : Compiled->Module->findPredicate(
                       S, static_cast<int>(Spec->second.Roots.size()));
    if (Pid < 0) {
      std::fprintf(stderr, "%s\n",
                   undefinedPredicateMessage(
                       *Compiled->Module, "entry", Spec->first,
                       static_cast<int>(Spec->second.Roots.size()))
                       .c_str());
      return 1;
    }
    std::vector<std::string> Lines;
    ExtensionTable Table;
    AbsMachineOptions MachineOptions;
    MachineOptions.DepthLimit = Depth;
    MachineOptions.TraceLog = &Lines;
    AbstractMachine Machine(*Compiled, Table, MachineOptions);
    AnalysisResult Out;
    while (Machine.runIteration(Pid, Spec->second) ==
               AbsRunStatus::Completed) {
      ++Out.Iterations;
      if (!Machine.changedSinceLastRun()) {
        Out.Converged = true;
        break;
      }
      Lines.push_back("---- next iteration ----");
    }
    for (const std::string &L : Lines)
      std::printf("%s\n", L.c_str());
    Out.Counters.Instructions = Machine.stepsExecuted();
    for (const ETEntry &E : Table.entries())
      Out.Items.push_back({E.PredId,
                           Compiled->Module->predicateLabel(E.PredId),
                           E.Call, E.Success});
    R = std::move(Out);
  } else {
    AnalysisSession A(*Compiled, Options);
    if (!importInto(A))
      return 1;
    R = A.analyze(Entry);
    // Chained incremental re-analyses: each --edit marks its predicate
    // edited and replays the rest of the previous run. The final report
    // must be byte-identical to the plain run (the program is unchanged).
    for (const PredSig &Sig : Edits) {
      if (!R)
        break;
      R = A.reanalyze({Sig});
    }
    if (R && !exportFrom(A))
      return 1;
  }
  if (!R) {
    std::fprintf(stderr, "analysis error: %s\n", R.diag().str().c_str());
    return 1;
  }
  std::fputs(formatReport(*R, *Compiled, ShowModes).c_str(), stdout);
  if (ShowDead && !UseBaseline)
    std::fputs(formatReachability(*R, *Compiled).c_str(), stdout);
  if (Optimize)
    printOptimized(*R);
  return 0;
}
