//===- bench/ablation_batch.cpp - Persistent-store batch query ablation ---===//
//
// Measures warm-start batch queries through one persistent AnalysisStore
// against from-scratch analyses on every Table 1 program.
//
// The store's contract is that warmth is observationally free: every
// query's report through a warm store is byte-identical to a fresh
// scratch analyze() of that entry alone. The bench verifies that before
// timing — entry spec plus every defined predicate of every benchmark —
// and exits nonzero on any divergence (the same property the CI batch
// gate checks via examples/analyze_file's repeated --entry).
//
// The timed comparison is the store's headline number: ColdMs is a fresh
// persistent session answering the benchmark's entry spec from nothing;
// WarmMs re-asks the same spec of the now-warm session, which the
// per-root result cache answers without draining. "replay acts" vs
// "exec acts" report how much of the *other* specs' table work the warm
// drains satisfied from banked journals rather than re-running the
// abstract machine.
//
// Output: a human-readable table on stdout and BENCH_batch.json in the
// current directory.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "support/StringUtil.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace awam;
using namespace awam::bench;

namespace {

struct RowOut {
  std::string Name;
  size_t Specs = 0;        ///< queries pushed through the warm store
  size_t Entries = 0;      ///< final multi-root store table size
  uint64_t ReplayActs = 0; ///< activations replayed from banked journals
  uint64_t ExecActs = 0;   ///< activations the warm drains still executed
  uint64_t CacheHits = 0;
  double ColdMs = 0;
  double WarmMs = 0;
  double SpeedUp = 0;
};

/// One spec per defined predicate, most-general calling pattern.
std::vector<std::string> definedPredSpecs(const CompiledProgram &P,
                                          const SymbolTable &Syms) {
  std::vector<std::string> Specs;
  for (int32_t I = 0; I != P.Module->numPredicates(); ++I) {
    const PredicateInfo &PI = P.Module->predicate(I);
    if (PI.Clauses.empty())
      continue;
    std::string Name(Syms.name(PI.Name));
    Specs.push_back(PI.Arity == 0 ? Name
                                  : Name + "/" + std::to_string(PI.Arity));
  }
  return Specs;
}

} // namespace

int main(int argc, char **argv) {
  double MinTotalMs = argc > 1 ? std::atof(argv[1]) : 400.0;

  std::printf("Ablation A7: persistent-store batch queries (entry spec + "
              "every defined predicate per program)\n\n");

  TextTable T({"Benchmark", "specs", "entries", "replay acts", "exec acts",
               "cold(ms)", "warm(ms)", "speedup"});

  std::vector<RowOut> Rows;
  int Divergences = 0, FastCount = 0;

  for (const BenchmarkProgram &B : benchmarkPrograms()) {
    PreparedBenchmark P = prepare(B);

    RowOut Row;
    Row.Name = std::string(B.Name);

    // The query list: the benchmark's entry spec first (the realistic
    // root), then the most-general pattern of every defined predicate.
    std::vector<std::string> Specs;
    Specs.emplace_back(B.EntrySpec);
    for (std::string &S : definedPredSpecs(*P.Compiled, *P.Syms))
      if (S != B.EntrySpec)
        Specs.push_back(std::move(S));
    Row.Specs = Specs.size();

    // Identity gate first: every answer through the warm store must
    // match a from-scratch session on that spec byte-for-byte.
    bool Diverged = false;
    {
      AnalyzerOptions O;
      O.Persistent = true;

      AnalysisSession Warm(*P.Compiled, O);
      for (const std::string &Spec : Specs) {
        Result<AnalysisResult> RW = Warm.analyze(Spec);
        AnalysisSession Scratch(*P.Compiled, O);
        Result<AnalysisResult> RS = Scratch.analyze(Spec);
        if (!RW || !RS) {
          std::fprintf(stderr, "%s: analysis error on '%s': %s\n",
                       Row.Name.c_str(), Spec.c_str(),
                       (RW ? RS : RW).diag().str().c_str());
          return 1;
        }
        if (formatAnalysis(*RW, *P.Syms) != formatAnalysis(*RS, *P.Syms)) {
          std::fprintf(stderr, "%s: WARM DIVERGENCE vs scratch on '%s'\n",
                       Row.Name.c_str(), Spec.c_str());
          Diverged = true;
        }
      }
      if (Warm.store()) {
        const AnalysisStore::Stats &St = Warm.store()->stats();
        Row.Entries = Warm.store()->table().size();
        Row.ReplayActs = St.ReplayedActivations;
        Row.ExecActs = St.ExecutedActivations;
        Row.CacheHits = St.CacheHits;
      }
    }
    if (Diverged) {
      ++Divergences;
      continue;
    }

    // Timing (sequential). Cold: a fresh persistent session answers the
    // entry spec from nothing. Warm: the same session re-asked — the
    // per-root result cache answers without draining.
    AnalyzerOptions O;
    O.Persistent = true;
    Row.ColdMs = measureMs(
        [&] {
          AnalysisSession S(*P.Compiled, O);
          (void)S.analyze(B.EntrySpec);
        },
        MinTotalMs / 2);
    AnalysisSession S(*P.Compiled, O);
    (void)S.analyze(B.EntrySpec);
    Row.WarmMs =
        measureMs([&] { (void)S.analyze(B.EntrySpec); }, MinTotalMs / 2);
    Row.SpeedUp = Row.WarmMs > 0 ? Row.ColdMs / Row.WarmMs : 0;
    if (Row.SpeedUp >= 5.0)
      ++FastCount;

    T.addRow({Row.Name, std::to_string(Row.Specs),
              std::to_string(Row.Entries), std::to_string(Row.ReplayActs),
              std::to_string(Row.ExecActs), formatDouble(Row.ColdMs, 3),
              formatDouble(Row.WarmMs, 4), formatDouble(Row.SpeedUp, 2)});
    Rows.push_back(Row);
  }

  std::fputs(T.str().c_str(), stdout);
  std::printf("\nwarm queries byte-identical to scratch on %zu/%zu "
              "programs; warm repeat >= 5x faster than cold on %d/%zu "
              "(target: 8/11).\n",
              Rows.size(), Rows.size() + Divergences, FastCount,
              Rows.size());

  FILE *J = std::fopen("BENCH_batch.json", "w");
  if (!J) {
    std::fprintf(stderr, "cannot write BENCH_batch.json\n");
    return 1;
  }
  std::fprintf(J, "{\n  \"bench\": \"ablation_batch\",\n");
  std::fprintf(J, "  \"queries\": \"entry spec + every defined predicate, "
                  "one warm store per program\",\n");
  std::fprintf(J, "  \"fast_count\": %d,\n", FastCount);
  std::fprintf(J, "  \"programs\": [\n");
  for (size_t I = 0; I != Rows.size(); ++I) {
    const RowOut &R = Rows[I];
    std::fprintf(
        J,
        "    {\"name\": \"%s\", \"specs\": %zu, \"et_entries\": %zu, "
        "\"replay_activations\": %llu, \"exec_activations\": %llu, "
        "\"cache_hits\": %llu, \"cold_ms\": %.4f, \"warm_ms\": %.5f, "
        "\"speedup\": %.3f}%s\n",
        R.Name.c_str(), R.Specs, R.Entries,
        static_cast<unsigned long long>(R.ReplayActs),
        static_cast<unsigned long long>(R.ExecActs),
        static_cast<unsigned long long>(R.CacheHits), R.ColdMs, R.WarmMs,
        R.SpeedUp, I + 1 == Rows.size() ? "" : ",");
  }
  std::fprintf(J, "  ]\n}\n");
  std::fclose(J);
  std::printf("wrote BENCH_batch.json\n");

  return Divergences ? 1 : 0;
}
