//===- perfbench/Ladder.cpp - Generated two-unit corpora at four sizes ----===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
// Workload `ladder`: corpora from tests/RandomProgramGen.h generateCorpus
// -- a library unit plus a user unit, entry drive/1 (which calls every
// predicate) -- at about 1k, 2k, 4k and 8k clauses, which --seed picks
// from fixed pools. Each corpus is taken from source to report two ways:
//
//   cold: parse and compile both units, link, analyze in a scratch
//         session (the CLI default), format;
//   warm: the same front end, then import the summary bundle exported in
//         set-up into a persistent session, analyze warm, format.
//
// Why it exists: this is where the front end does most of the work and
// where cost per clause shows whether a stage grows faster than the
// program; it is also the store's workload (bundle export, import and
// journal replay). The specializer, the concrete WAM and the server are
// unused. Rungs stop near 8k clauses so that each operation stays short
// enough to be sampled dozens of times per run; larger programs enter
// only as the scale-cliff probes of the traced run (Probe.cpp).
//
// Answer checks: the persistent session's report equals the scratch one,
// and every warm report is byte-identical to the cold one. The
// meta-interpreting baseline is not exact on these corpora, so the
// traced run only counts its disagreements (baseline.meta_disagreements).
//
//===----------------------------------------------------------------------===//

#include "Pipeline.h"

#include "baseline/MetaAnalyzer.h"
#include "tests/RandomProgramGen.h"

using namespace awam;

namespace perfbench {
namespace {

const int kRungClauses[] = {1000, 2000, 4000, 8000};
const char *const kRungNames[] = {"r1k", "r2k", "r4k", "r8k"};
constexpr size_t kRungs = 4;
/// generateCorpus seeds each rung's corpus is drawn from. They are the
/// first 16 seeds on which scratch modes analysis of drive/1 answered when
/// the pools were drawn; (13, 4000) and (10, 8000) were left out because
/// the analyzer's heap grows without bound on them (the first is one of
/// the scale-cliff probes, Probe.cpp).
const uint64_t kRungPools[kRungs][16] = {
    {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
    {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
    {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 15, 16, 17},
    {1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 14, 15, 16, 17}};
/// One round is a cold and a warm operation on every rung (~0.4 s).
constexpr double kRoundsPerSecond = 2.5;
constexpr int kSetups = 8;
const char *const kEntry = "drive/1";

struct Rung {
  testgen::Corpus Corpus;
  int Clauses = 0;
  std::string Report;
  std::string Bundle;
  PipelineOut Cold, Warm;
  uint64_t StoreBytes = 0;
  double ExportUs = 0;
};

PipelineIn coldIn(const Rung &G) {
  PipelineIn In;
  In.Units = {G.Corpus.Library, G.Corpus.User};
  In.Entry = kEntry;
  return In;
}

PipelineIn warmIn(const Rung &G) {
  PipelineIn In = coldIn(G);
  In.Options.Persistent = true;
  In.Bundle = &G.Bundle;
  return In;
}

/// Corpora, reference reports and bundles; the reference runs double as
/// the warm-up.
void setup(const std::vector<uint64_t> &Seeds, std::vector<Rung> &Rungs,
           Record &R) {
  Rungs.assign(kRungs, Rung());
  uint64_t Op = tracer().newOp();
  Span Root("setup", -1, Op);
  for (size_t I = 0; I != kRungs; ++I) {
    Rung &G = Rungs[I];
    testgen::CorpusOptions O;
    O.Clauses = kRungClauses[I];
    G.Corpus = testgen::generateCorpus(Seeds[I], O);
    std::string Name = kRungNames[I];

    runPipeline(coldIn(G), Op, Root.id(), G.Cold);
    R.op(G.Cold.Error.empty(), Name + ": cold: " + G.Cold.Error);
    G.Report = G.Cold.Report;
    G.Clauses = G.Cold.Clauses;

    PipelineIn P = coldIn(G);
    P.Options.Persistent = true;
    P.Export = true;
    PipelineOut PO;
    size_t From = tracer().size();
    runPipeline(P, Op, Root.id(), PO);
    R.op(PO.Error.empty() && PO.Report == G.Report,
         Name + ": persistent report differs from scratch " + PO.Error);
    G.Bundle = std::move(PO.Bundle);
    G.StoreBytes = PO.StoreBytes;
    if (tracer().Enabled)
      G.ExportUs = tracer().selfNs(From)["analyzer.store.export"] / 1000.0;

    runPipeline(warmIn(G), Op, Root.id(), G.Warm);
    R.op(G.Warm.Error.empty() && G.Warm.Report == G.Report,
         Name + ": warm report differs from cold " + G.Warm.Error);
  }
}

} // namespace

void runLadder(const RunConfig &C, Record &R) {
  std::vector<uint64_t> Seeds;
  for (size_t I = 0; I != kRungs; ++I)
    Seeds.push_back(pickCorpusSeed(C.Seed, I, kRungPools[I]));

  // Each set-up (setupBefore) replaces the rungs the rounds use.
  std::vector<Rung> Rungs;
  std::vector<double> SetupS;
  std::vector<std::vector<double>> ExportUs(kRungs);
  auto SetUp = [&] {
    tracer().Enabled = C.Trace;
    uint64_t T0 = nowNs();
    setup(Seeds, Rungs, R);
    SetupS.push_back(static_cast<double>(nowNs() - T0) / 1e9);
    for (size_t G = 0; G != kRungs; ++G)
      ExportUs[G].push_back(Rungs[G].ExportUs);
  };
  SetUp();

  // Items: rung-major, cold then warm. Traced runs trace even rounds.
  std::vector<Item> Plain(kRungs * 2), Traced(kRungs * 2);
  for (size_t I = 0; I != kRungs * 2; ++I)
    Plain[I].Clauses = Traced[I].Clauses = Rungs[I / 2].Clauses;
  LayerSamples Layers;
  size_t TracedFrom = tracer().size();

  const int Rounds = roundsFor(C.Seconds, kRoundsPerSecond);
  for (int Round = 0; Round != Rounds; ++Round) {
    if (Round > 0 && setupBefore(Round, Rounds, kSetups))
      SetUp();
    bool Tr = C.Trace && Round % 2 == 0;
    tracer().Enabled = Tr;
    std::vector<Item> &Items = Tr ? Traced : Plain;
    for (size_t G = 0; G != kRungs; ++G) {
      for (size_t K = 0; K != 2; ++K) {
        size_t From = tracer().size();
        uint64_t Op = tracer().newOp();
        PipelineOut O;
        uint64_t T0 = nowNs();
        {
          Span Root(K ? "op.warm" : "op.cold", -1, Op);
          runPipeline(K ? warmIn(Rungs[G]) : coldIn(Rungs[G]), Op, Root.id(),
                      O);
        }
        Items[G * 2 + K].Us.push_back(static_cast<double>(nowNs() - T0) /
                                      1000.0);
        R.op(O.Error.empty() && O.Report == Rungs[G].Report,
             std::string(kRungNames[G]) + (K ? ": warm" : ": cold") +
                 " report differs from the reference " + O.Error);
        if (Tr)
          Layers.add(G * 2 + K, From);
      }
    }
  }
  tracer().Enabled = false;

  if (!C.Trace) {
    R.add("setup_s", "s", quantile(SetupS, kLowQ), SetupS.size(),
          quantile(SetupS, 0.5));
    R.add("answer_us", "us", geomeanLow(ptrs(Plain)));
    return;
  }

  auto Kind = [&](const std::vector<Item> &V, size_t K) {
    std::vector<const Item *> Out;
    for (size_t G = 0; G != kRungs; ++G)
      Out.push_back(&V[G * 2 + K]);
    return Out;
  };
  R.add("cold_us_per_clause", "us/clause", perClauseLow(Kind(Plain, 0)));
  R.add("warm_us_per_clause", "us/clause", perClauseLow(Kind(Plain, 1)));

  // Per-layer cost per clause, summed over rungs and per rung, from the
  // traced rounds' spans.
  auto PerLayer = [&](const std::string &Metric, const std::string &Layer,
                      size_t K, bool PerRung) {
    std::vector<Item> Held;
    for (size_t G = 0; G != kRungs; ++G)
      Held.push_back(Layers.item(G * 2 + K, Layer, Rungs[G].Clauses));
    R.add(Metric, "us/clause", perClauseLow(ptrs(Held)));
    if (PerRung)
      for (size_t G = 0; G != kRungs; ++G)
        R.add(Metric + "." + kRungNames[G], "us/clause",
              perClauseLow({&Held[G]}));
  };
  PerLayer("term.parse_us_per_clause", "term.parse", 0, true);
  PerLayer("compiler.compile_us_per_clause", "compiler.compile", 0, true);
  PerLayer("compiler.link_us_per_clause", "compiler.link", 0, true);
  PerLayer("analyzer.analyze_us_per_clause", "analyzer.analyze", 0, true);
  PerLayer("analyzer.format_us_per_clause", "analyzer.format", 0, false);
  PerLayer("analyzer.store.import_us_per_clause", "analyzer.store.import", 1,
           false);
  PerLayer("analyzer.store.warm_analyze_us_per_clause",
           "analyzer.store.warm_analyze", 1, false);
  {
    double Us = 0, Clauses = 0;
    for (size_t G = 0; G != kRungs; ++G) {
      Us += quantile(ExportUs[G], kLowQ);
      Clauses += Rungs[G].Clauses;
    }
    R.add("analyzer.store.export_us_per_clause", "us/clause",
          Clauses > 0 ? Us / Clauses : 0, SetupS.size() * kRungs);
  }

  CounterSum Sum;
  double BundleBytes = 0, StoreBytes = 0, Replayed = 0, Executed = 0;
  for (const Rung &G : Rungs) {
    Sum.add(G.Cold);
    BundleBytes += static_cast<double>(G.Bundle.size());
    StoreBytes += static_cast<double>(G.StoreBytes);
    Replayed += static_cast<double>(G.Warm.ReplayedRuns);
    Executed += static_cast<double>(G.Warm.ExecutedRuns);
  }
  Sum.report(R);
  R.add("analyzer.store.bundle_bytes", "bytes", BundleBytes);
  R.add("analyzer.store.bytes", "bytes", StoreBytes);
  R.add("analyzer.store.replay_ratio", "ratio",
        Replayed + Executed > 0 ? Replayed / (Replayed + Executed) : 0);

  double Tr = geomeanLow(ptrs(Traced)).Value;
  double Pl = geomeanLow(ptrs(Plain)).Value;
  R.add("trace.overhead_pct", "%", Pl > 0 ? 100.0 * (Tr - Pl) / Pl : 0);
  R.add("trace.uncovered_pct", "%", uncoveredPct(tracer(), TracedFrom));

  // Untimed: the meta-interpreting baseline's disagreements (reported,
  // not gated -- it is not exact on corpora), then the probes.
  double Disagree = 0;
  for (const Rung &G : Rungs) {
    SymbolTable Syms;
    TermArena Arena;
    Result<ParsedProgram> P =
        parseProgram(G.Corpus.Library + G.Corpus.User, Syms, Arena);
    if (!P)
      continue;
    MetaAnalyzer Meta(*P, Syms);
    Result<AnalysisResult> MR = Meta.analyze(kEntry);
    Disagree += MR ? static_cast<double>(tableDisagreements(
                         formatAnalysis(*MR, Syms), G.Report))
                   : static_cast<double>(tableLines(G.Report).size());
  }
  R.add("baseline.meta_disagreements", "count", Disagree);
  runProbes(C, R);
}

} // namespace perfbench
