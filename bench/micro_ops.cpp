//===- bench/micro_ops.cpp - Microbenchmarks (google-benchmark) -----------===//
//
// Ablation A3: microbenchmarks of the primitive operations the analysis
// is built from: concrete unification, abstract meets, pattern
// canonicalization / instantiation / lub, extension-table lookup, whole
// compilation, and end-to-end concrete execution vs abstract analysis of
// nreverse.
//
// The Corpus benchmarks time each front-end stage on its own (lex,
// intern, parse, compile, link) over the ladder's 8k rung,
// generateCorpus(1, 8000), and report clauses per second (and tokens per
// second for the lexer):
//
//   micro_ops --benchmark_filter=Corpus
//
//===----------------------------------------------------------------------===//

#include "absdom/AbsOps.h"
#include "analyzer/Session.h"
#include "baseline/MetaAnalyzer.h"
#include "compiler/ModuleLink.h"
#include "programs/Benchmarks.h"
#include "tests/RandomProgramGen.h"
#include "wam/Machine.h"

#include <benchmark/benchmark.h>

using namespace awam;

namespace {

/// Builds [0, 1, ..., N-1] on the heap.
int64_t buildIntList(Store &St, int N) {
  int64_t Tail = St.push(Cell::atom(SymbolTable::SymNil));
  for (int I = N - 1; I >= 0; --I) {
    int64_t Base = St.push(Cell::integer(I));
    St.push(Cell::ref(Tail));
    Tail = St.push(Cell::lis(Base));
  }
  return Tail;
}

void BM_AbsMeetKinds(benchmark::State &State) {
  Store St;
  for (auto _ : State) {
    int64_t Mark = St.trailMark();
    int64_t H = St.heapTop();
    int64_t A = St.push(Cell::abs(AbsKind::Any));
    int64_t B = St.push(Cell::abs(AbsKind::Ground));
    benchmark::DoNotOptimize(absUnify(St, Cell::ref(A), Cell::ref(B)));
    St.unwind(Mark);
    St.truncate(H);
  }
}
BENCHMARK(BM_AbsMeetKinds);

void BM_AbsUnifyGroundList(benchmark::State &State) {
  Store St;
  int64_t List = buildIntList(St, 30);
  for (auto _ : State) {
    int64_t Mark = St.trailMark();
    int64_t H = St.heapTop();
    int64_t Elem = St.push(Cell::abs(AbsKind::Ground));
    int64_t GL = St.push(Cell::abs(AbsKind::List, Elem));
    benchmark::DoNotOptimize(
        absUnify(St, Cell::ref(GL), Cell::ref(List)));
    St.unwind(Mark);
    St.truncate(H);
  }
}
BENCHMARK(BM_AbsUnifyGroundList);

void BM_Canonicalize(benchmark::State &State) {
  Store St;
  int64_t List = buildIntList(St, 30);
  std::vector<Cell> Args = {Cell::ref(List), Cell::ref(St.pushVar())};
  for (auto _ : State)
    benchmark::DoNotOptimize(canonicalize(St, Args));
}
BENCHMARK(BM_Canonicalize);

void BM_InstantiatePattern(benchmark::State &State) {
  Store St;
  int64_t List = buildIntList(St, 30);
  std::vector<Cell> Args = {Cell::ref(List), Cell::ref(St.pushVar())};
  Pattern P = canonicalize(St, Args);
  Store Scratch;
  for (auto _ : State) {
    Scratch.reset();
    benchmark::DoNotOptimize(instantiate(Scratch, P));
  }
}
BENCHMARK(BM_InstantiatePattern);

void BM_LubPatterns(benchmark::State &State) {
  Store St;
  SymbolTable Syms;
  int64_t List = buildIntList(St, 8);
  int64_t Elem = St.push(Cell::abs(AbsKind::AtomT));
  int64_t AL = St.push(Cell::abs(AbsKind::List, Elem));
  Pattern A = canonicalize(St, {Cell::ref(List)});
  Pattern B = canonicalize(St, {Cell::ref(AL)});
  for (auto _ : State)
    benchmark::DoNotOptimize(lubPatterns(A, B));
}
BENCHMARK(BM_LubPatterns);

void BM_ETLookup(benchmark::State &State) {
  auto Impl = static_cast<ExtensionTable::Impl>(State.range(0));
  ExtensionTable Table(Impl);
  Store St;
  // Populate with 64 distinct patterns.
  std::vector<Pattern> Pats;
  for (int I = 0; I != 64; ++I) {
    int64_t L = buildIntList(St, I % 5);
    Pattern P = canonicalize(St, {Cell::ref(L), Cell::ref(St.pushVar())});
    bool Created = false;
    Table.findOrCreate(I % 8, P, Created);
    Pats.push_back(std::move(P));
  }
  size_t I = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(
        Table.find(static_cast<int32_t>(I % 8), Pats[I % Pats.size()]));
    ++I;
  }
}
BENCHMARK(BM_ETLookup)
    ->Arg(static_cast<int>(ExtensionTable::Impl::LinearList))
    ->Arg(static_cast<int>(ExtensionTable::Impl::HashMap));

void BM_CompileQsort(benchmark::State &State) {
  const BenchmarkProgram *B = findBenchmark("qsort");
  for (auto _ : State) {
    SymbolTable Syms;
    TermArena Arena;
    benchmark::DoNotOptimize(compileSource(B->Source, Syms, Arena));
  }
}
BENCHMARK(BM_CompileQsort);

void BM_ConcreteNreverse(benchmark::State &State) {
  const BenchmarkProgram *B = findBenchmark("nreverse");
  SymbolTable Syms;
  TermArena Arena;
  Result<CompiledProgram> P = compileSource(B->Source, Syms, Arena);
  Machine M(*P);
  Parser GoalParser("main", Syms, Arena);
  Result<const Term *> Goal = GoalParser.readTerm();
  for (auto _ : State)
    benchmark::DoNotOptimize(M.proves(*Goal, 0));
}
BENCHMARK(BM_ConcreteNreverse);

void BM_AnalyzeNreverse(benchmark::State &State) {
  const BenchmarkProgram *B = findBenchmark("nreverse");
  SymbolTable Syms;
  TermArena Arena;
  Result<CompiledProgram> P = compileSource(B->Source, Syms, Arena);
  for (auto _ : State) {
    AnalysisSession A(*P);
    benchmark::DoNotOptimize(A.analyze("main"));
  }
}
BENCHMARK(BM_AnalyzeNreverse);

void BM_MetaAnalyzeNreverse(benchmark::State &State) {
  const BenchmarkProgram *B = findBenchmark("nreverse");
  SymbolTable Syms;
  TermArena Arena;
  Result<ParsedProgram> P = parseProgram(B->Source, Syms, Arena);
  for (auto _ : State) {
    MetaAnalyzer A(*P, Syms);
    benchmark::DoNotOptimize(A.analyze("main"));
  }
}
BENCHMARK(BM_MetaAnalyzeNreverse);

/// The ladder's 8k rung: two units, library first.
struct Corpus8k {
  testgen::Corpus C;
  std::string_view Units[2];
  double Clauses = 0; ///< parsed clauses of both units
  double Tokens = 0;  ///< tokens of both units
  /// Names as the reader interns them: atom and variable tokens.
  std::vector<std::string_view> Names;

  Corpus8k() {
    testgen::CorpusOptions O;
    O.Clauses = 8000;
    C = testgen::generateCorpus(1, O);
    Units[0] = C.Library;
    Units[1] = C.User;
    SymbolTable Syms;
    TermArena Arena;
    for (std::string_view Src : Units) {
      Clauses += static_cast<double>(
          parseProgram(Src, Syms, Arena)->Clauses.size());
      Lexer L(Src);
      for (Token T = L.next(); T.Kind != TokenKind::EndOfFile; T = L.next()) {
        ++Tokens;
        if (T.Kind == TokenKind::Atom || T.Kind == TokenKind::Var)
          Names.push_back(T.Text);
      }
    }
  }
};

const Corpus8k &corpus8k() {
  static const Corpus8k C;
  return C;
}

/// Reports \p PerIteration units of work per iteration as a rate.
benchmark::Counter perSecond(double PerIteration) {
  return benchmark::Counter(PerIteration,
                            benchmark::Counter::kIsIterationInvariantRate);
}

void BM_CorpusLex(benchmark::State &State) {
  const Corpus8k &C = corpus8k();
  for (auto _ : State)
    for (std::string_view Src : C.Units) {
      Lexer L(Src);
      while (L.next().Kind != TokenKind::EndOfFile)
        ;
    }
  State.counters["clauses"] = perSecond(C.Clauses);
  State.counters["tokens"] = perSecond(C.Tokens);
}
BENCHMARK(BM_CorpusLex)->Unit(benchmark::kMillisecond);

void BM_CorpusIntern(benchmark::State &State) {
  const Corpus8k &C = corpus8k();
  for (auto _ : State) {
    SymbolTable Syms;
    for (std::string_view Name : C.Names)
      benchmark::DoNotOptimize(Syms.intern(Name));
  }
  State.counters["clauses"] = perSecond(C.Clauses);
  State.counters["names"] = perSecond(static_cast<double>(C.Names.size()));
}
BENCHMARK(BM_CorpusIntern)->Unit(benchmark::kMillisecond);

void BM_CorpusParse(benchmark::State &State) {
  const Corpus8k &C = corpus8k();
  for (auto _ : State) {
    SymbolTable Syms;
    TermArena Arena;
    for (std::string_view Src : C.Units)
      benchmark::DoNotOptimize(parseProgram(Src, Syms, Arena));
  }
  State.counters["clauses"] = perSecond(C.Clauses);
}
BENCHMARK(BM_CorpusParse)->Unit(benchmark::kMillisecond);

void BM_CorpusCompile(benchmark::State &State) {
  const Corpus8k &C = corpus8k();
  SymbolTable Syms;
  TermArena Arena;
  std::vector<ParsedProgram> Parsed;
  for (std::string_view Src : C.Units)
    Parsed.push_back(parseProgram(Src, Syms, Arena).take());
  for (auto _ : State)
    for (const ParsedProgram &P : Parsed)
      benchmark::DoNotOptimize(compileProgram(P, Syms));
  State.counters["clauses"] = perSecond(C.Clauses);
}
BENCHMARK(BM_CorpusCompile)->Unit(benchmark::kMillisecond);

void BM_CorpusLink(benchmark::State &State) {
  const Corpus8k &C = corpus8k();
  SymbolTable Syms;
  TermArena Arena;
  std::vector<CompiledProgram> Units;
  for (std::string_view Src : C.Units)
    Units.push_back(compileSource(Src, Syms, Arena).take());
  for (auto _ : State)
    benchmark::DoNotOptimize(
        linkPrograms({{&Units[0], "library"}, {&Units[1], "user"}}));
  State.counters["clauses"] = perSecond(C.Clauses);
}
BENCHMARK(BM_CorpusLink)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
