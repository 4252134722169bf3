//===- perfbench/Service.cpp - The analysis server under a closed loop ----===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
// Workload `service`: one AnalysisServer with 2 workers, driven by a
// closed loop of 2 clients inside this process. Each client sends its
// next request from the callback of the previous one -- IDE-style callers
// wait for their reply. The modules are the 11 Table 1 programs plus one
// two-unit corpus of about 1.5k clauses, which --seed picks from a fixed
// pool. Every round each client
//
//   1. loads a module,          2. queries its entry,
//   3. repeats the query (a response-cache hit),
//   4. runs a most-general query of another predicate (a warm drain),
//   5. edits that predicate (cone invalidation and re-answer),
//   6. re-queries the entry,    7-9. switches to the det domain,
//                                    queries the entry there, and
//                                    switches back.
//
// The clients walk the modules half a rotation apart and wait for each
// other at the end of every round, so no module is in two clients' hands
// at once and each request takes the same path (cache hit or drain) in
// every run; the clients still share the worker pool, the queues and the
// server-wide locks, and one client's writes run beside the other's
// reads.
//
// Why it exists: it is the only workload where the server's queues,
// response cache and per-slot stores carry the load; the front end runs
// on every load. An open-loop rate sweep is left out. The second domain
// is det, not pos: pos analysis of drive/1 overflows the stack in
// absUnify on about a third of generated 1.2k-clause corpora, which would
// kill the server; the probe set (Probe.cpp) carries one such corpus.
//
// Answer check: each client's payloads are byte-identical to its script
// replayed alone on a one-worker server (two rotations of the replay, the
// second of which must repeat the first, give the reference of every
// rotation).
//
// Gated figure: answer_us here is taken per round rather than per request
// -- the time from the first of the two clients' submits to the last
// reply, divided by the requests per client -- with the minimum over
// rotations and the geometric mean over the rounds of a rotation. A
// per-request minimum would pick the samples where the other client was
// idle; a round always has both in flight, so waiting for the shared
// workers, queues and locks stays in every sample.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "analyzer/Server.h"
#include "compiler/ProgramCompiler.h"
#include "programs/Benchmarks.h"
#include "tests/RandomProgramGen.h"

#include <condition_variable>
#include <functional>
#include <memory>

using namespace awam;

namespace perfbench {
namespace {

constexpr int kClients = 2;
constexpr int kWorkers = 2;
constexpr int kSetups = 5;
constexpr int kCorpusClauses = 1200; ///< lands near 1.5k with drive/1
/// generateCorpus seeds the corpus is drawn from: seeds on which scratch
/// modes and det analysis of drive/1 answered when the pool was drawn (all
/// of 1-32 did).
const uint64_t kCorpusPool[] = {1, 2,  3,  4,  5,  6,  7,  8,
                                9, 10, 11, 12, 13, 14, 15, 16};
/// Rotations (one round per module per client) per second of run.
constexpr double kRotationsPerSecond = 7;
constexpr size_t kSteps = 9;

enum StepKind { Load, Entry, Hit, Edit, Domain, NumKinds };
const StepKind kStepKinds[kSteps] = {Load, Entry, Hit,    Entry, Edit,
                                     Entry, Domain, Domain, Domain};
const char *const kSpanNames[NumKinds] = {
    "analyzer.server.load", "analyzer.server.entry", "analyzer.server.hit",
    "analyzer.server.edit", "analyzer.server.domain"};
const char *const kKindMetrics[NumKinds] = {
    "analyzer.server.load_ms", "analyzer.server.entry_ms",
    "analyzer.server.hit_ms", "analyzer.server.edit_ms",
    "analyzer.server.domain_ms"};

struct Module {
  std::string Load;  ///< load operands
  std::string Entry; ///< entry spec
  std::string Work;  ///< name/arity of the edited predicate
};

struct Inputs {
  testgen::Corpus Corpus;
  std::vector<Module> Mods;
};

AnalysisServer::Config config(const Inputs &In, int Workers) {
  AnalysisServer::Config C;
  C.Workers = Workers;
  const testgen::Corpus *Corpus = &In.Corpus;
  C.LoadSource = [Corpus](const std::string &Spec, std::string &Source,
                          std::string &Err) {
    if (Spec == "corpus:lib" || Spec == "corpus:user") {
      Source = Spec == "corpus:lib" ? Corpus->Library : Corpus->User;
      return true;
    }
    if (Spec.rfind("bench:", 0) == 0)
      if (const BenchmarkProgram *B = findBenchmark(Spec.substr(6))) {
        Source = B->Source;
        return true;
      }
    Err = "unknown module " + Spec + "\n";
    return false;
  };
  return C;
}

/// The edited predicate: the first defined one that is not the entry.
bool describe(Module &M, const std::vector<std::string> &Sources,
              const std::string &EntryName) {
  SymbolTable Syms;
  TermArena Arena;
  std::string All;
  for (const std::string &S : Sources)
    All += S;
  Result<ParsedProgram> P = parseProgram(All, Syms, Arena);
  if (!P)
    return false;
  Result<CompiledProgram> C = compileProgram(*P, Syms);
  if (!C)
    return false;
  for (int32_t I = 0; I != C->Module->numPredicates(); ++I) {
    const PredicateInfo &PI = C->Module->predicate(I);
    std::string Name(Syms.name(PI.Name));
    if (PI.Clauses.empty() || Name == EntryName)
      continue;
    M.Work = Name + "/" + std::to_string(PI.Arity);
    return true;
  }
  return false;
}

Inputs makeInputs(uint64_t CorpusSeed, Record &R) {
  Inputs In;
  for (const BenchmarkProgram &B : benchmarkPrograms()) {
    Module M;
    M.Load = "bench:" + std::string(B.Name);
    M.Entry = std::string(B.EntrySpec);
    R.op(describe(M, {std::string(B.Source)}, M.Entry),
         M.Load + ": no predicate to edit");
    In.Mods.push_back(M);
  }
  testgen::CorpusOptions O;
  O.Clauses = kCorpusClauses;
  In.Corpus = testgen::generateCorpus(CorpusSeed, O);
  Module M;
  M.Load = "corpus:user corpus:lib";
  M.Entry = "drive/1";
  R.op(describe(M, {In.Corpus.Library, In.Corpus.User}, "drive"),
       "corpus: no predicate to edit");
  In.Mods.push_back(M);
  return In;
}

/// Module of request \p I of client number \p C's script.
size_t moduleOf(const Inputs &In, int C, size_t I) {
  size_t NM = In.Mods.size();
  return (I / kSteps + static_cast<size_t>(C) * NM / kClients) % NM;
}

/// Request \p I of client number \p C's script.
std::string line(const Inputs &In, int C, size_t I) {
  const Module &M = In.Mods[moduleOf(In, C, I)];
  switch (I % kSteps) {
  case 0: return "load " + M.Load;
  case 1:
  case 2:
  case 5:
  case 7: return "entry " + M.Entry;
  case 3: return "entry " + M.Work;
  case 4: return "edit " + M.Work;
  case 6: return "domain det";
  default: return "domain modes";
  }
}

/// Round barrier: the last client to finish a round starts everyone's
/// next one.
struct Barrier {
  std::mutex Mu;
  std::vector<std::function<void()>> Waiting;

  void arrive(std::function<void()> Next) {
    std::vector<std::function<void()>> Go;
    {
      std::lock_guard<std::mutex> L(Mu);
      Waiting.push_back(std::move(Next));
      if (Waiting.size() < kClients)
        return;
      Go.swap(Waiting);
    }
    for (auto &F : Go)
      F();
  }
};

/// One client's closed loop over script positions [Begin, End).
struct Loop {
  AnalysisServer *S = nullptr;
  const Inputs *In = nullptr;
  Barrier *B = nullptr;
  const std::vector<std::string> *Want = nullptr; ///< one rotation
  int Index = 0;  ///< client number (module offset)
  int Client = 0; ///< server client id
  size_t Begin = 0, End = 0;
  size_t Period = 0;  ///< requests per rotation
  bool Trace = false; ///< span every other rotation
  std::vector<uint64_t> StartNs, EndNs;
  std::vector<char> Ok, Traced;
  std::mutex Mu;
  std::condition_variable CV;
  bool Done = false;

  void send(size_t I) {
    size_t K = I - Begin;
    bool Tr = Trace && (K / Period) % 2 == 0;
    Traced[K] = Tr;
    int64_t Sp = Tr ? tracer().begin(kSpanNames[kStepKinds[I % kSteps]], -1,
                                     tracer().newOp())
                    : -1;
    StartNs[K] = nowNs();
    S->submit(Client, line(*In, Index, I),
              [this, I, K, Sp](const AnalysisServer::Response &Resp) {
                EndNs[K] = nowNs();
                tracer().end(Sp);
                Ok[K] = Resp.Out == (*Want)[I % Period];
                if (I + 1 == End) {
                  std::lock_guard<std::mutex> L(Mu);
                  Done = true;
                  CV.notify_all();
                } else if ((I + 1) % kSteps == 0) {
                  B->arrive([this, I] { send(I + 1); });
                } else {
                  send(I + 1);
                }
              });
  }

  void start(size_t From, size_t To) {
    Begin = From;
    End = To;
    StartNs.assign(To - From, 0);
    EndNs.assign(To - From, 0);
    Ok.assign(To - From, 0);
    Traced.assign(To - From, 0);
    Done = false;
    send(From);
  }
  void wait() {
    std::unique_lock<std::mutex> L(Mu);
    CV.wait(L, [&] { return Done; });
  }
};

/// Server, reference payloads and a warmed store pool.
struct State {
  Inputs In;
  std::vector<std::vector<std::string>> Want; ///< per client, one rotation
  std::unique_ptr<AnalysisServer> Server;
  std::vector<int> Clients;
  Barrier B;
};

/// Both clients' loops over positions [From, To), run to completion.
std::vector<std::unique_ptr<Loop>> runLoops(State &St, size_t From, size_t To,
                                            bool Trace) {
  std::vector<std::unique_ptr<Loop>> Loops;
  for (int I = 0; I != kClients; ++I) {
    auto L = std::make_unique<Loop>();
    L->S = St.Server.get();
    L->In = &St.In;
    L->B = &St.B;
    L->Want = &St.Want[static_cast<size_t>(I)];
    L->Index = I;
    L->Client = St.Clients[static_cast<size_t>(I)];
    L->Period = St.In.Mods.size() * kSteps;
    L->Trace = Trace;
    Loops.push_back(std::move(L));
  }
  for (auto &L : Loops)
    L->start(From, To);
  for (auto &L : Loops)
    L->wait();
  return Loops;
}

void setup(uint64_t CorpusSeed, State &St, Record &R) {
  St.Server.reset();
  St.In = makeInputs(CorpusSeed, R);
  const size_t Period = St.In.Mods.size() * kSteps;

  // Reference: each client's script alone on a one-worker server.
  St.Want.clear();
  for (int C = 0; C != kClients; ++C) {
    AnalysisServer Ref(config(St.In, 1));
    int Id = Ref.openClient();
    std::vector<std::string> Got;
    for (size_t I = 0; I != 2 * Period; ++I)
      Got.push_back(Ref.execute(Id, line(St.In, C, I)).Out);
    auto Mid = Got.begin() + static_cast<long>(Period);
    R.op(std::equal(Got.begin(), Mid, Mid),
         "single-client replay does not repeat per rotation");
    St.Want.emplace_back(Got.begin(), Mid);
  }

  // The timed server, warmed by one untimed rotation of every client.
  St.Server = std::make_unique<AnalysisServer>(config(St.In, kWorkers));
  St.Clients.clear();
  for (int I = 0; I != kClients; ++I)
    St.Clients.push_back(St.Server->openClient());
  for (const auto &L : runLoops(St, 0, Period, false))
    R.op(std::all_of(L->Ok.begin(), L->Ok.end(), [](char C) { return C; }),
         "warm-up payloads differ from the single-client replay");
}

} // namespace

void runService(const RunConfig &C, Record &R) {
  const uint64_t CorpusSeed = pickCorpusSeed(C.Seed, 100, kCorpusPool);
  const size_t Rotations =
      static_cast<size_t>(roundsFor(C.Seconds, kRotationsPerSecond));

  // The timed rotations run in kSetups chunks, each on the fresh server of
  // a set-up of its own (warmed by that set-up's untimed rotation), so the
  // set-ups are spread over the run. In a traced run, even rotations of a
  // chunk are traced and odd ones not.
  State St;
  std::vector<double> SetupS;
  std::vector<std::unique_ptr<Loop>> Loops;
  double WallS = 0, Queries = 0, Drains = 0, CacheHits = 0, Coalesced = 0;
  for (int Chunk = 0; Chunk != kSetups; ++Chunk) {
    uint64_t T0 = nowNs();
    setup(CorpusSeed, St, R);
    SetupS.push_back(static_cast<double>(nowNs() - T0) / 1e9);
    const size_t Period = St.In.Mods.size() * kSteps;
    const size_t From = Period * (1 + Rotations * Chunk / kSetups);
    const size_t To = Period * (1 + Rotations * (Chunk + 1) / kSetups);
    AnalysisServer::Stats Before = St.Server->stats();
    tracer().Enabled = C.Trace;
    T0 = nowNs();
    for (auto &L : runLoops(St, From, To, C.Trace))
      Loops.push_back(std::move(L));
    WallS += static_cast<double>(nowNs() - T0) / 1e9;
    tracer().Enabled = false;
    AnalysisServer::Stats After = St.Server->stats();
    Queries += static_cast<double>(After.Queries - Before.Queries);
    Drains += static_cast<double>(After.Drains - Before.Drains);
    CacheHits += static_cast<double>(After.CacheHits - Before.CacheHits);
    Coalesced += static_cast<double>(After.Coalesced - Before.Coalesced);
  }
  const size_t NM = St.In.Mods.size();
  const size_t Period = NM * kSteps;

  // Every request is checked; traced requests are (module, step) items for
  // the per-verb latencies, untraced ones feed the percentiles.
  std::vector<Item> Traced(Period);
  std::vector<double> PlainMs;
  size_t Requests = 0;
  for (auto &L : Loops) {
    for (size_t K = 0; K != L->Ok.size(); ++K) {
      size_t I = L->Begin + K;
      size_t Pos = moduleOf(St.In, L->Index, I) * kSteps + I % kSteps;
      double Us = static_cast<double>(L->EndNs[K] - L->StartNs[K]) / 1000.0;
      if (L->Traced[K])
        Traced[Pos].Us.push_back(Us);
      else
        PlainMs.push_back(Us / 1000.0);
      ++Requests;
      R.op(L->Ok[K], "client " + std::to_string(L->Index) + " request " +
                         std::to_string(I) +
                         " differs from the single-client replay");
    }
  }

  // The gated figure is taken per round: both clients start their kSteps
  // requests together, and a sample is the time from the first submit to
  // the last reply, per request. Waiting for the shared workers, queues and
  // locks is inside every sample, so the minimum over rotations drops the
  // host's noise but not the server's queueing. Items are the rounds of a
  // rotation (which module pair is in flight).
  std::vector<Item> PlainRound(NM), TracedRound(NM);
  const size_t NC = kClients;
  for (size_t P = 0; P + NC <= Loops.size(); P += NC) {
    const Loop &A = *Loops[P];
    for (size_t K = 0; K + kSteps <= A.Ok.size(); K += kSteps) {
      uint64_t Start = A.StartNs[K], End = 0;
      for (size_t J = 0; J != NC; ++J) {
        Start = std::min(Start, Loops[P + J]->StartNs[K]);
        End = std::max(End, Loops[P + J]->EndNs[K + kSteps - 1]);
      }
      (A.Traced[K] ? TracedRound : PlainRound)[((A.Begin + K) / kSteps) % NM]
          .Us.push_back(static_cast<double>(End - Start) / 1000.0 / kSteps);
    }
  }

  if (!C.Trace) {
    R.add("setup_s", "s", quantile(SetupS, kLowQ), SetupS.size(),
          quantile(SetupS, 0.5));
    R.add("answer_us", "us", geomeanLow(ptrs(PlainRound)));
    return;
  }

  R.add("request_p50_ms", "ms", quantile(PlainMs, 0.5), PlainMs.size());
  R.add("request_p90_ms", "ms", quantile(PlainMs, 0.9), PlainMs.size());
  R.add("service_rps", "1/s", static_cast<double>(Requests) / WallS, Requests);
  for (int K = 0; K != NumKinds; ++K) {
    std::vector<const Item *> Of;
    for (size_t I = 0; I != Period; ++I)
      if (kStepKinds[I % kSteps] == K)
        Of.push_back(&Traced[I]);
    Estimate E = geomeanLow(Of);
    R.add(kKindMetrics[K], "ms", E.Value / 1000.0, E.Samples,
          E.Median / 1000.0);
  }
  auto Share = [&](double N) { return Queries > 0 ? N / Queries : 0; };
  R.add("analyzer.server.drains", "count", Drains);
  R.add("analyzer.server.cache_hit_ratio", "ratio", Share(CacheHits));
  R.add("analyzer.server.coalesce_ratio", "ratio", Share(Coalesced));

  double Tr = geomeanLow(ptrs(TracedRound)).Value;
  double Pl = geomeanLow(ptrs(PlainRound)).Value;
  R.add("trace.overhead_pct", "%", Pl > 0 ? 100.0 * (Tr - Pl) / Pl : 0);
  R.add("trace.uncovered_pct", "%", uncoveredPct(tracer(), 0));
}

} // namespace perfbench
