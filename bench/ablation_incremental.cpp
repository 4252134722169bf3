//===- bench/ablation_incremental.cpp - Incremental re-analysis ablation --===//
//
// Measures AnalysisSession::reanalyze() on a store-backed session
// (AnalyzerOptions::Persistent) against a from-scratch analyze() with
// plain options on every Table 1 program after a one-clause edit (a new
// fact appended to main/0 — every benchmark defines it, and through main
// the edit's invalidation cone covers the whole table, making this the
// *hard* case for replay).
//
// The incremental contract is that re-analysis is observationally free:
// the report of reanalyze() is byte-identical to a scratch analyze() of
// the edited program. The bench verifies that before timing and exits
// nonzero on any divergence — the same check the CI incremental gate
// performs via examples/analyze_file --edit. It also exits nonzero unless
// reanalyze executes strictly fewer activations than scratch on at least
// 9 of the 11 programs.
//
// What replay saves is re-drained work: the "exec acts" column counts
// clause-list explorations that actually ran the abstract machine during
// reanalyze(), vs the scratch run's full activation count; "replay acts"
// were satisfied from the store's banked journals. Steady-state reanalyze
// wall time is measured by chaining reanalyze() calls (each records the
// journal the next one replays from).
//
// Output: a human-readable table on stdout and BENCH_incremental.json in
// the current directory.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "support/StringUtil.h"

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

using namespace awam;
using namespace awam::bench;

namespace {

struct RowOut {
  std::string Name;
  size_t Entries = 0;      ///< edited program's table size
  uint64_t ScratchActs = 0; ///< scratch activations on the edited program
  uint64_t ExecActs = 0;    ///< activations executed during reanalyze
  uint64_t ReplayActs = 0;  ///< activations replayed from the journal
  uint64_t Cone = 0;        ///< invalidation-cone entries (reporting)
  double ScratchMs = 0;
  double ReanalyzeMs = 0;
  double SpeedUp = 0;
};

} // namespace

int main(int argc, char **argv) {
  double MinTotalMs = argc > 1 ? std::atof(argv[1]) : 400.0;

  std::printf("Ablation A6: incremental re-analysis (one-clause edit of "
              "main/0 per program)\n\n");

  TextTable T({"Benchmark", "entries", "scratch acts", "exec acts",
               "replay acts", "cone", "scratch(ms)", "reanalyze(ms)",
               "speedup"});

  std::vector<RowOut> Rows;
  int Divergences = 0, StrictlyFewer = 0;

  for (const BenchmarkProgram &B : benchmarkPrograms()) {
    PreparedBenchmark P = prepare(B);

    RowOut Row;
    Row.Name = std::string(B.Name);

    // The edit: one new fact for main/0, compiled against the same symbol
    // table so the diff localizes to main.
    std::string EditedSrc = std::string(B.Source) + "\nmain.\n";
    TermArena EditArena;
    Result<CompiledProgram> EditedR =
        compileSource(EditedSrc, *P.Syms, EditArena);
    if (!EditedR) {
      std::fprintf(stderr, "%s: edited compile error: %s\n",
                   Row.Name.c_str(), EditedR.diag().str().c_str());
      return 1;
    }
    CompiledProgram Edited = EditedR.take();

    // Identity gate first: reanalyze on the edited program must match a
    // scratch session byte-for-byte.
    AnalyzerOptions StoreOpts;
    StoreOpts.Persistent = true;
    bool Diverged = false;
    {
      AnalysisSession Inc(*P.Compiled, StoreOpts);
      Result<AnalysisResult> R0 = Inc.analyze(B.EntrySpec);
      Result<AnalysisResult> RInc =
          R0 ? Inc.reanalyze(Edited) : std::move(R0);
      AnalysisSession Scratch(Edited);
      Result<AnalysisResult> RScr = Scratch.analyze(B.EntrySpec);
      if (!RInc || !RScr) {
        std::fprintf(stderr, "%s: analysis error: %s\n", Row.Name.c_str(),
                     (RInc ? RScr : RInc).diag().str().c_str());
        return 1;
      }
      if (formatAnalysis(*RInc, *P.Syms) != formatAnalysis(*RScr, *P.Syms)) {
        std::fprintf(stderr, "%s: REANALYZE DIVERGENCE vs scratch\n",
                     Row.Name.c_str());
        Diverged = true;
      } else {
        // The first query ran cold on a fresh store, so the store's replay
        // counter is the reanalyze's own; whatever did not replay executed.
        const AnalysisStore::Stats &St = Inc.store()->stats();
        Row.Entries = RScr->Items.size();
        Row.ScratchActs = RScr->Counters.ActivationRuns;
        Row.ReplayActs = St.ReplayedActivations;
        Row.ExecActs = RInc->Counters.ActivationRuns - Row.ReplayActs;
        Row.Cone = St.LastConeEntries;
      }
    }
    if (Diverged) {
      ++Divergences;
      continue;
    }
    if (Row.ExecActs < Row.ScratchActs)
      ++StrictlyFewer;

    // Timing (sequential). Scratch: fresh plain session per run.
    // Incremental: chained reanalyze() in steady state — each call replays
    // from the journal the previous one recorded.
    Row.ScratchMs = measureMs(
        [&] {
          AnalysisSession S(Edited);
          (void)S.analyze(B.EntrySpec);
        },
        MinTotalMs / 2);
    AnalysisSession Inc(*P.Compiled, StoreOpts);
    (void)Inc.analyze(B.EntrySpec);
    (void)Inc.reanalyze(Edited); // install the edited program
    Row.ReanalyzeMs = measureMs(
        [&] { (void)Inc.reanalyze({PredSig{"main", 0}}); }, MinTotalMs / 2);
    Row.SpeedUp = Row.ReanalyzeMs > 0 ? Row.ScratchMs / Row.ReanalyzeMs : 0;

    T.addRow({Row.Name, std::to_string(Row.Entries),
              std::to_string(Row.ScratchActs), std::to_string(Row.ExecActs),
              std::to_string(Row.ReplayActs), std::to_string(Row.Cone),
              formatDouble(Row.ScratchMs, 3),
              formatDouble(Row.ReanalyzeMs, 3),
              formatDouble(Row.SpeedUp, 2)});
    Rows.push_back(Row);
  }

  std::fputs(T.str().c_str(), stdout);
  std::printf("\nreanalyze byte-identical to scratch on %zu/%zu programs; "
              "strictly fewer executed activations on %d.\n",
              Rows.size(), Rows.size() + Divergences, StrictlyFewer);

  FILE *J = std::fopen("BENCH_incremental.json", "w");
  if (!J) {
    std::fprintf(stderr, "cannot write BENCH_incremental.json\n");
    return 1;
  }
  std::fprintf(J, "{\n  \"bench\": \"ablation_incremental\",\n");
  std::fprintf(J, "  \"edit\": \"append one fact to main/0\",\n");
  std::fprintf(J, "  \"strictly_fewer_exec_acts\": %d,\n", StrictlyFewer);
  std::fprintf(J, "  \"programs\": [\n");
  for (size_t I = 0; I != Rows.size(); ++I) {
    const RowOut &R = Rows[I];
    std::fprintf(
        J,
        "    {\"name\": \"%s\", \"et_entries\": %zu, "
        "\"scratch_activations\": %llu, \"exec_activations\": %llu, "
        "\"replay_activations\": %llu, \"cone_entries\": %llu, "
        "\"scratch_ms\": %.4f, \"reanalyze_ms\": %.4f, "
        "\"speedup\": %.3f}%s\n",
        R.Name.c_str(), R.Entries,
        static_cast<unsigned long long>(R.ScratchActs),
        static_cast<unsigned long long>(R.ExecActs),
        static_cast<unsigned long long>(R.ReplayActs),
        static_cast<unsigned long long>(R.Cone), R.ScratchMs, R.ReanalyzeMs,
        R.SpeedUp, I + 1 == Rows.size() ? "" : ",");
  }
  std::fprintf(J, "  ]\n}\n");
  std::fclose(J);
  std::printf("wrote BENCH_incremental.json\n");

  // The acceptance bar next to the identity gate: replay must save
  // executed activations on at least 9 of the 11 programs.
  constexpr int kMinStrictlyFewer = 9;
  if (StrictlyFewer < kMinStrictlyFewer) {
    std::fprintf(stderr,
                 "REPLAY SAVINGS GATE: strictly fewer executed activations "
                 "on %d programs, need >= %d\n",
                 StrictlyFewer, kMinStrictlyFewer);
    return 1;
  }
  return Divergences ? 1 : 0;
}
