//===- perfbench/Table1.cpp - The paper's Table 1 programs ----------------===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
// Workload `table1`: the 11 Table 1 programs (3-53 clauses each), each
// taken from source to report under the modes, pos and det domains, plus
// one main/0 run of its original and of its specialized (--optimize)
// module on the concrete WAM.
//
// Why it exists: the paper's claim is analysis speed on exactly these
// programs. The abstract-WAM fixpoint does most of the work here (about
// half of source-to-report under modes); the front end does little, the
// store and server none. They are also the only programs with a runnable
// main/0, so this is where the specializer's effect on generated-code run
// time shows. The programs are fixed and do not depend on --seed.
//
// Answer checks that do not come from the code under test: the compiled
// analyzer's modes table equals the meta-interpreting baseline's on every
// program, and the original and specialized main/0 both succeed with the
// same solutions and output. Every timed report must equal the run's
// reference report and every timed run must succeed.
//
//===----------------------------------------------------------------------===//

#include "Pipeline.h"

#include "analyzer/Specialize.h"
#include "baseline/MetaAnalyzer.h"
#include "compiler/Specializer.h"
#include "programs/Benchmarks.h"
#include "wam/Machine.h"

#include <memory>

using namespace awam;

namespace perfbench {
namespace {

const char *const kDomains[] = {"modes", "pos", "det"};
constexpr int kNumDomains = 3;
/// One round is 55 short operations (~50 ms on a 4-vCPU host).
constexpr double kRoundsPerSecond = 20;
constexpr int kSetups = 40; ///< set-up is short here, so take more samples
constexpr int kCheckSolutions = 5;

/// One program with everything its timed operations need.
struct Prog {
  const BenchmarkProgram *B = nullptr;
  std::string Reports[kNumDomains]; ///< reference source-to-report output
  PipelineOut Modes;                ///< reference modes run (counters)
  std::unique_ptr<SymbolTable> Syms;
  std::unique_ptr<TermArena> Arena;
  std::unique_ptr<ParsedProgram> Parsed;
  std::unique_ptr<CompiledProgram> Orig, Opt;
  const Term *Goal = nullptr;
  std::unique_ptr<Machine> MOrig, MOpt;
  uint64_t InstrOrig = 0, InstrOpt = 0, FastPathHits = 0, Rewrites = 0;
  int CodeSize = 0;
};

struct State {
  std::vector<Prog> Progs;
  size_t MetaDisagreements = 0;
};

/// Reference answers, specialized modules and machines for every program.
/// Failed checks go to \p R.
void setup(State &St, Record &R, std::vector<double> &SpecializeUs) {
  St = State();
  uint64_t Op = tracer().newOp();
  Span Root("setup", -1, Op);
  SpecializeUs.clear();
  for (const BenchmarkProgram &B : benchmarkPrograms()) {
    Prog P;
    P.B = &B;
    std::string Name(B.Name);
    for (int D = 0; D != kNumDomains; ++D) {
      PipelineIn In;
      In.Units = {B.Source};
      In.Entry = B.EntrySpec;
      In.Options.DomainName = kDomains[D];
      PipelineOut O;
      runPipeline(In, Op, Root.id(), O);
      R.op(O.Error.empty(), Name + "/" + kDomains[D] + ": " + O.Error);
      P.Reports[D] = O.Report;
      if (D == 0)
        P.Modes = std::move(O);
    }

    P.Syms = std::make_unique<SymbolTable>();
    P.Arena = std::make_unique<TermArena>();
    Result<ParsedProgram> Parsed = parseProgram(B.Source, *P.Syms, *P.Arena);
    if (!Parsed) {
      R.op(false, Name + ": parse: " + Parsed.diag().str());
      continue;
    }
    P.Parsed = std::make_unique<ParsedProgram>(Parsed.take());
    Result<CompiledProgram> C = compileProgram(*P.Parsed, *P.Syms);
    if (!C) {
      R.op(false, Name + ": compile: " + C.diag().str());
      continue;
    }
    P.Orig = std::make_unique<CompiledProgram>(C.take());
    P.CodeSize = P.Orig->Module->codeSize();

    // Independent check: the meta-interpreting baseline's modes table.
    {
      MetaAnalyzer Meta(*P.Parsed, *P.Syms);
      Result<AnalysisResult> MR = Meta.analyze(B.EntrySpec);
      size_t Dis = MR ? tableDisagreements(formatAnalysis(*MR, *P.Syms),
                                           P.Reports[0])
                      : 1;
      St.MetaDisagreements += Dis;
      R.op(Dis == 0, Name + ": compiled modes table differs from the "
                            "meta-interpreting baseline");
    }

    AnalysisSession A(*P.Orig);
    Result<AnalysisResult> AR = A.analyze(B.EntrySpec);
    if (!AR) {
      R.op(false, Name + ": analyze: " + AR.diag().str());
      continue;
    }
    SpecializationReport Rep;
    {
      Span S("compiler.specialize", Root.id(), Op);
      uint64_t T0 = nowNs();
      P.Opt = std::make_unique<CompiledProgram>(specializeProgram(
          *P.Orig, buildSpecializationFacts(*AR, *P.Orig), Rep));
      SpecializeUs.push_back(static_cast<double>(nowNs() - T0) / 1000.0);
    }
    P.Rewrites = Rep.totalRewrites();

    Parser GoalParser("main", *P.Syms, *P.Arena);
    Result<const Term *> Goal = GoalParser.readTerm();
    if (!Goal) {
      R.op(false, Name + ": goal parse error");
      continue;
    }
    P.Goal = *Goal;
    P.MOrig = std::make_unique<Machine>(*P.Orig);
    P.MOpt = std::make_unique<Machine>(*P.Opt);

    // Both modules succeed with the same solutions and output.
    TermArena SolArena;
    std::vector<Solution> SO, SP;
    RunStatus RO = P.MOrig->solve(P.Goal, 0, SolArena, SO, kCheckSolutions);
    RunStatus RP = P.MOpt->solve(P.Goal, 0, SolArena, SP, kCheckSolutions);
    bool Same = RO == RunStatus::Success && RP == RunStatus::Success &&
                SO.size() == SP.size() &&
                P.MOrig->output() == P.MOpt->output();
    R.op(Same, Name + ": original and specialized main/0 disagree");
    P.InstrOrig = P.MOrig->stepsExecuted();
    P.InstrOpt = P.MOpt->stepsExecuted();
    P.FastPathHits = P.MOpt->stats().FastPathHits;
    St.Progs.push_back(std::move(P));
  }
}

/// One main/0 run of \p M (the first solution), timed under its own op.
bool runMain(Machine &M, const Term *Goal, const char *OpName, uint64_t Op,
             double &Us) {
  uint64_t T0 = nowNs();
  Span Root(OpName, -1, Op);
  TermArena SolArena;
  std::vector<Solution> Sols;
  RunStatus S;
  {
    Span W("wam.solve", Root.id(), Op);
    S = M.solve(Goal, 0, SolArena, Sols, 1);
  }
  Us = static_cast<double>(nowNs() - T0) / 1000.0;
  return S == RunStatus::Success;
}

} // namespace

void runTable1(const RunConfig &C, Record &R) {
  // Each set-up (setupBefore) replaces the state the rounds use.
  State St;
  std::vector<double> SetupS, SpecializeUs, AllSpecializeUs;
  auto SetUp = [&] {
    tracer().Enabled = C.Trace;
    uint64_t T0 = nowNs();
    setup(St, R, SpecializeUs);
    SetupS.push_back(static_cast<double>(nowNs() - T0) / 1e9);
    AllSpecializeUs.insert(AllSpecializeUs.end(), SpecializeUs.begin(),
                           SpecializeUs.end());
  };
  SetUp();
  const size_t NP = St.Progs.size();

  // Items: per program, the three domains' source-to-report, then the
  // original and the specialized main/0 run. In a traced run, even rounds
  // are traced and odd rounds not, so both halves see the same host.
  const size_t PerProg = kNumDomains + 2;
  std::vector<Item> Plain(NP * PerProg), Traced(NP * PerProg);
  LayerSamples Layers;
  size_t TracedFrom = tracer().size();

  const int Rounds = roundsFor(C.Seconds, kRoundsPerSecond);
  for (int Round = 0; Round != Rounds; ++Round) {
    if (Round > 0 && setupBefore(Round, Rounds, kSetups))
      SetUp();
    bool Tr = C.Trace && Round % 2 == 0;
    tracer().Enabled = Tr;
    std::vector<Item> &Items = Tr ? Traced : Plain;
    for (size_t P = 0; P != NP; ++P) {
      Prog &Pg = St.Progs[P];
      for (int D = 0; D != kNumDomains; ++D) {
        size_t From = tracer().size();
        uint64_t Op = tracer().newOp();
        PipelineIn In;
        In.Units = {Pg.B->Source};
        In.Entry = Pg.B->EntrySpec;
        In.Options.DomainName = kDomains[D];
        PipelineOut O;
        uint64_t T0 = nowNs();
        {
          Span Root("op.analyze", -1, Op);
          runPipeline(In, Op, Root.id(), O);
        }
        Items[P * PerProg + D].Us.push_back(
            static_cast<double>(nowNs() - T0) / 1000.0);
        R.op(O.Error.empty() && O.Report == Pg.Reports[D],
             std::string(Pg.B->Name) + "/" + kDomains[D] +
                 ": report differs from the reference");
        if (Tr)
          Layers.add(P * PerProg + D, From);
      }
      for (int K = 0; K != 2; ++K) {
        size_t From = tracer().size();
        double Us = 0;
        bool Ok = runMain(K ? *Pg.MOpt : *Pg.MOrig, Pg.Goal,
                          K ? "op.run_opt" : "op.run_orig",
                          tracer().newOp(), Us);
        Items[P * PerProg + 3 + K].Us.push_back(Us);
        R.op(Ok, std::string(Pg.B->Name) + ": main/0 did not succeed");
        if (Tr)
          Layers.add(P * PerProg + 3 + K, From);
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

  // Headline figures from the untraced rounds.
  auto Select = [&](const std::vector<Item> &V, auto Pred) {
    std::vector<const Item *> Out;
    for (size_t I = 0; I != V.size(); ++I)
      if (Pred(I % PerProg))
        Out.push_back(&V[I]);
    return Out;
  };
  R.add("analyze_geomean_us", "us",
        geomeanLow(Select(Plain, [](size_t K) { return K < 3; })));
  R.add("run_geomean_us", "us",
        geomeanLow(Select(Plain, [](size_t K) { return K == 4; })));

  // Per-layer self times from the traced rounds: geometric means over
  // programs of each item's low quantile.
  auto LayerGeo = [&](const std::string &Layer, auto Pred) {
    std::vector<Item> Held;
    for (size_t P = 0; P != NP; ++P) {
      Item Merged;
      for (size_t K = 0; K != PerProg; ++K)
        if (Pred(K)) {
          Item I = Layers.item(P * PerProg + K, Layer, 0);
          Merged.Us.insert(Merged.Us.end(), I.Us.begin(), I.Us.end());
        }
      Held.push_back(std::move(Merged));
    }
    return geomeanLow(ptrs(Held));
  };
  auto IsAnalyze = [](size_t K) { return K < 3; };
  R.add("term.parse_us", "us", LayerGeo("term.parse", IsAnalyze));
  R.add("compiler.compile_us", "us", LayerGeo("compiler.compile", IsAnalyze));
  R.add("analyzer.modes_us", "us",
        LayerGeo("analyzer.analyze", [](size_t K) { return K == 0; }));
  R.add("analyzer.pos_us", "us",
        LayerGeo("analyzer.analyze", [](size_t K) { return K == 1; }));
  R.add("analyzer.det_us", "us",
        LayerGeo("analyzer.analyze", [](size_t K) { return K == 2; }));
  R.add("analyzer.format_us", "us", LayerGeo("analyzer.format", IsAnalyze));
  R.add("wam.run_orig_us", "us",
        LayerGeo("wam.solve", [](size_t K) { return K == 3; }));
  R.add("wam.run_opt_us", "us",
        LayerGeo("wam.solve", [](size_t K) { return K == 4; }));

  // Specializer time: per program, the minimum over the set-ups.
  {
    std::vector<double> PerProgMin;
    for (size_t P = 0; P != NP; ++P) {
      double Min = 0;
      for (size_t S = P; S < AllSpecializeUs.size(); S += NP)
        Min = Min == 0 ? AllSpecializeUs[S] : std::min(Min, AllSpecializeUs[S]);
      PerProgMin.push_back(Min);
    }
    R.add("compiler.specialize_us", "us", geomean(PerProgMin),
          AllSpecializeUs.size());
  }

  // Counts of one round, summed over programs (the paper's Size and Exec
  // columns among them).
  CounterSum Sum;
  double CodeSize = 0, Rewrites = 0, InOrig = 0, InOpt = 0, Fast = 0;
  for (const Prog &P : St.Progs) {
    Sum.add(P.Modes);
    CodeSize += P.CodeSize;
    Rewrites += static_cast<double>(P.Rewrites);
    InOrig += static_cast<double>(P.InstrOrig);
    InOpt += static_cast<double>(P.InstrOpt);
    Fast += static_cast<double>(P.FastPathHits);
  }
  Sum.report(R);
  R.add("compiler.code_size", "count", CodeSize);
  R.add("compiler.rewrites", "count", Rewrites);
  R.add("wam.instructions_orig", "count", InOrig);
  R.add("wam.instructions_opt", "count", InOpt);
  R.add("wam.fast_path_hits", "count", Fast);
  R.add("baseline.meta_disagreements", "count",
        static_cast<double>(St.MetaDisagreements));

  double Tr = geomeanLow(ptrs(Traced)).Value;
  double Pl = geomeanLow(ptrs(Plain)).Value;
  R.add("trace.overhead_pct", "%", Pl > 0 ? 100.0 * (Tr - Pl) / Pl : 0);
  R.add("trace.uncovered_pct", "%", uncoveredPct(tracer(), TracedFrom));
}

} // namespace perfbench
