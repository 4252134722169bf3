//===- analyzer/Server.cpp - Concurrent multi-tenant analysis service -----===//

#include "analyzer/Server.h"

#include "analyzer/Domain.h"
#include "analyzer/Specialize.h"
#include "compiler/ModuleLink.h"
#include "compiler/ProgramCompiler.h"
#include "compiler/Specializer.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <future>
#include <sstream>

using namespace awam;

namespace {

std::string trim(std::string_view S) {
  size_t B = S.find_first_not_of(" \t\r");
  if (B == std::string_view::npos)
    return "";
  size_t E = S.find_last_not_of(" \t\r");
  return std::string(S.substr(B, E - B + 1));
}

/// A hash of \p Units' source texts in order. Labels are left out: the
/// same text under another operand compiles to the same program.
uint64_t
hashTexts(const std::vector<std::pair<std::string, std::string>> &Units) {
  uint64_t H = Units.size();
  for (const auto &[Label, Text] : Units)
    H = (H ^ std::hash<std::string_view>{}(Text)) * 0x100000001b3ull;
  return H;
}

bool sameTexts(const std::vector<std::pair<std::string, std::string>> &A,
               const std::vector<std::pair<std::string, std::string>> &B) {
  return std::equal(A.begin(), A.end(), B.begin(), B.end(),
                    [](const auto &X, const auto &Y) {
                      return X.second == Y.second;
                    });
}

constexpr const char *kHelpText =
    "commands:\n"
    "  load MAIN [LIB]...  each operand a <file.pl> or bench:<name>; extra\n"
    "                      operands compile as separate library units and\n"
    "                      link with MAIN (identical to loading the\n"
    "                      concatenated source)\n"
    "  entry SPEC          e.g. entry qsort(glist, var, var)\n"
    "  batch SPEC; SPEC    several entries through the warm store\n"
    "  edit NAME/ARITY     incremental re-analysis after an edit\n"
    "  optimize [SPEC]     specialize the loaded module with the facts of\n"
    "                      SPEC (default: the last successful entry)\n"
    "  export TAG          serialize the store's replay traces\n"
    "                      into the in-memory bundle registry under TAG\n"
    "  import TAG          warm-start the store from bundle TAG (stale\n"
    "                      traces drop; answers stay byte-identical)\n"
    "  domain [NAME]       switch abstract domain (or show it)\n"
    "  modes               toggle mode report / pattern table\n"
    "  dump                canonical per-root store projection\n"
    "  stats               cumulative store statistics\n"
    "  help, quit\n";

} // namespace

/// One (module fingerprint, abstract domain) tenancy. The compile
/// artifacts (symbols, arena, program) live for the server's lifetime;
/// the analysis state (Session and its store) is what eviction drops and
/// a later touch re-warms.
struct AnalysisServer::StoreSlot {
  uint64_t Fp = 0;
  std::string DomainName;
  std::string Label; ///< operand of the first load (reuse messages cite it)
  /// The (label, source) units of the first load — one for a plain load,
  /// several for a linked one. Domain switches re-select from these, and
  /// a load of the same texts selects this slot without compiling.
  std::vector<std::pair<std::string, std::string>> Units;
  /// The link's unresolved-import warnings, re-emitted whenever a load or
  /// domain switch selects this slot without compiling.
  std::string Warnings;
  std::unique_ptr<SymbolTable> Syms;
  std::unique_ptr<TermArena> Arena;
  Result<CompiledProgram> Program = makeError("unloaded");

  /// Writer lock: drains and edits are exclusive, dump/deep-stats shared.
  std::shared_mutex Mu;
  /// Guards RespCache only — never held across a drain.
  std::mutex CacheMu;
  /// Response bytes of successful entry/batch/optimize requests, keyed by
  /// (report toggle, verb, spec text). Filled and cleared only under Mu;
  /// valid until the next edit of this slot.
  std::unordered_map<std::string, std::string> RespCache;

  /// Null while evicted (guarded by Mu).
  std::unique_ptr<AnalysisSession> Session;
  bool WasEvicted = false; ///< guarded by Mu
  std::atomic<bool> Live{false};
  std::atomic<uint64_t> LastTouch{0};
  std::atomic<uint64_t> Bytes{0};
  std::atomic<uint64_t> Hits{0}, Drains{0}, Evictions{0}, Rewarms{0};
};

struct AnalysisServer::QueuedReq {
  std::string Line;
  std::function<void(const Response &)> Done;
};

struct AnalysisServer::ClientState {
  int Id = 0;
  bool Open = true;   ///< guarded by GM
  bool Active = false; ///< a worker is on this client (guarded by GM)
  std::deque<QueuedReq> Queue; ///< guarded by GM
  // The fields below are only touched by the worker currently active on
  // this client (Active excludes a second one), so they need no lock.
  StoreSlot *Cursor = nullptr;
  std::string DomainName = "modes";
  bool ShowModes = false;
  /// Per-slot last successful entry spec — what this client's `edit`
  /// re-answers. Client-local on purpose: the *store's* notion of "most
  /// recent query" depends on request interleaving across clients.
  std::unordered_map<StoreSlot *, std::string> LastSpec;
};

AnalysisServer::AnalysisServer(Config C) : Cfg(std::move(C)) {
  int N = std::max(1, Cfg.Workers);
  Workers.reserve(static_cast<size_t>(N));
  for (int I = 0; I != N; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

AnalysisServer::~AnalysisServer() {
  {
    std::lock_guard<std::mutex> L(GM);
    Stopping = true;
  }
  WorkCV.notify_all();
  for (std::thread &T : Workers)
    T.join();
}

int AnalysisServer::openClient() {
  std::lock_guard<std::mutex> L(GM);
  int Id = NextClient++;
  auto CS = std::make_unique<ClientState>();
  CS->Id = Id;
  Clients.emplace(Id, std::move(CS));
  return Id;
}

void AnalysisServer::closeClient(int Client) {
  std::lock_guard<std::mutex> L(GM);
  auto It = Clients.find(Client);
  if (It != Clients.end())
    It->second->Open = false;
}

void AnalysisServer::submit(int Client, std::string Line,
                            std::function<void(const Response &)> Done) {
  std::unique_lock<std::mutex> L(GM);
  auto It = Clients.find(Client);
  if (It == Clients.end() || !It->second->Open || Stopping) {
    L.unlock();
    if (Done) {
      Response R;
      R.Err = "unknown client\n";
      Done(R);
    }
    return;
  }
  ClientState &CS = *It->second;
  CS.Queue.push_back(QueuedReq{std::move(Line), std::move(Done)});
  if (!CS.Active) {
    CS.Active = true;
    Ready.push_back(Client);
    L.unlock();
    WorkCV.notify_one();
  }
}

AnalysisServer::Response AnalysisServer::execute(int Client,
                                                 std::string_view Line) {
  auto Done = std::make_shared<std::promise<Response>>();
  // A shared_future's get() copies the reply on this thread. Moving the
  // worker's copy out instead leaves replies the caller keeps in the
  // worker's malloc arena: about 1 MB more peak RSS on perfbench service.
  std::shared_future<Response> R = Done->get_future().share();
  submit(Client, std::string(Line),
         [Done](const Response &Resp) { Done->set_value(Resp); });
  return R.get();
}

void AnalysisServer::workerLoop() {
  std::unique_lock<std::mutex> L(GM);
  for (;;) {
    WorkCV.wait(L, [&] { return Stopping || !Ready.empty(); });
    if (Stopping)
      return;
    int Cid = Ready.front();
    Ready.pop_front();
    auto It = Clients.find(Cid);
    if (It == Clients.end())
      continue;
    ClientState &CS = *It->second;
    if (CS.Queue.empty()) {
      CS.Active = false;
      continue;
    }
    QueuedReq Req = std::move(CS.Queue.front());
    CS.Queue.pop_front();
    L.unlock();

    Response R;
    process(CS, Req.Line, R);
    ++NRequests;
    if (Req.Done)
      Req.Done(R);

    L.lock();
    if (!CS.Queue.empty()) {
      // Re-queue at the back: round-robin fairness between clients.
      Ready.push_back(Cid);
      WorkCV.notify_one();
    } else {
      CS.Active = false;
    }
  }
}

void AnalysisServer::process(ClientState &CS, const std::string &Line,
                             Response &R) {
  std::string Cmd = trim(Line);
  if (Cmd.empty() || Cmd[0] == '#')
    return;
  size_t Sp = Cmd.find(' ');
  std::string Verb = Cmd.substr(0, Sp);
  std::string Rest =
      Sp == std::string::npos ? "" : trim(Cmd.substr(Sp + 1));

  if (Verb == "quit" || Verb == "exit") {
    R.Quit = true;
    return;
  }
  if (Verb == "help") {
    R.Err = kHelpText;
    return;
  }
  if (Verb == "modes") {
    CS.ShowModes = !CS.ShowModes;
    R.Err = std::string("report: ") + (CS.ShowModes ? "modes" : "patterns") +
            "\n";
    return;
  }
  if (Verb == "load") {
    doLoad(CS, Rest, R);
    return;
  }
  if (Verb == "domain") {
    if (Rest.empty()) {
      R.Err = "domain: " + CS.DomainName +
              " (registered: " + registeredDomainNames() + ")\n";
      return;
    }
    Result<const Domain *> D = resolveDomain(Rest);
    if (!D) {
      R.Err = D.diag().str() + "\n";
      return;
    }
    CS.DomainName = Rest;
    R.Err = "domain: " + CS.DomainName + "\n";
    // Re-select the loaded program under the new domain (its per-domain
    // store stays warm across switches).
    if (CS.Cursor)
      selectStore(CS, CS.Cursor->Units, CS.Cursor->Label, R);
    return;
  }

  // Every remaining command needs a loaded program.
  if (!CS.Cursor) {
    R.Err = "no program loaded (try: load bench:qsort)\n";
    return;
  }

  if (Verb == "entry" || Verb == "batch") {
    doQuery(CS, Verb, Rest, R);
    return;
  }
  if (Verb == "edit") {
    doEdit(CS, Rest, R);
    return;
  }
  if (Verb == "optimize") {
    doOptimize(CS, Rest, R);
    return;
  }
  if (Verb == "export") {
    doExport(CS, Rest, R);
    return;
  }
  if (Verb == "import") {
    doImport(CS, Rest, R);
    return;
  }
  if (Verb == "dump") {
    doDump(CS, R);
    return;
  }
  if (Verb == "stats") {
    doStats(CS, R);
    return;
  }
  R.Err = "unknown command '" + Verb + "' (try: help)\n";
}

void AnalysisServer::doLoad(ClientState &CS, const std::string &Rest,
                            Response &R) {
  if (Rest.empty()) {
    R.Err = "load what? (load <file.pl> | load bench:<name>, extra "
            "operands are library units)\n";
    return;
  }
  // Whitespace-separated operands: the first is the main unit, the rest
  // are library units. Resolve each to source; the units link in library
  // order with the main unit last (its imports resolve against the
  // library exports).
  std::vector<std::string> Specs;
  {
    std::stringstream SS(Rest);
    std::string Part;
    while (SS >> Part)
      Specs.push_back(Part);
  }
  auto Resolve = [&](const std::string &Spec, std::string &Source) {
    if (Cfg.LoadSource) {
      std::string Err;
      if (!Cfg.LoadSource(Spec, Source, Err)) {
        R.Err = Err;
        return false;
      }
      return true;
    }
    std::ifstream In(Spec);
    if (!In) {
      R.Err = "cannot open " + Spec + "\n";
      return false;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Source = Buf.str();
    return true;
  };
  std::vector<std::pair<std::string, std::string>> Units;
  Units.reserve(Specs.size());
  for (size_t I = 1; I != Specs.size(); ++I) {
    std::string Source;
    if (!Resolve(Specs[I], Source))
      return;
    Units.emplace_back(Specs[I], std::move(Source));
  }
  std::string Main;
  if (!Resolve(Specs[0], Main))
    return;
  Units.emplace_back(Specs[0], std::move(Main));
  selectStore(CS, Units, Rest, R);
}

void AnalysisServer::selectStore(
    ClientState &CS,
    const std::vector<std::pair<std::string, std::string>> &Units,
    const std::string &Label, Response &R) {
  // Selects a warm slot, with the message a compile that found it prints
  // (caller holds GM).
  auto Reuse = [&](StoreSlot &S) {
    CS.Cursor = &S;
    R.Err += "reusing warm store for " + Label + " (loaded as " + S.Label +
             ", domain " + CS.DomainName + ")\n";
    S.LastTouch = ++TouchClock;
  };
  // A slot of this domain compiled from the same texts holds the program
  // a compile would produce, so it is selected without compiling. The
  // hash only finds candidates; the texts are compared in full.
  const uint64_t TextHash = hashTexts(Units);
  {
    std::lock_guard<std::mutex> L(GM);
    auto [B, E] = BySource.equal_range(TextHash);
    for (auto It = B; It != E; ++It) {
      StoreSlot &S = *It->second;
      if (S.DomainName == CS.DomainName && sameTexts(S.Units, Units)) {
        R.Err += S.Warnings;
        Reuse(S);
        return;
      }
    }
  }

  // Compile aside, lock-free: the slot key needs the compiled module's
  // fingerprint. A concurrent load of the same module costs a duplicate
  // compile whose result the loser drops — exactly the single-client
  // REPL's reuse semantics, just raced.
  ++NCompiles;
  std::string Warnings;
  auto Syms = std::make_unique<SymbolTable>();
  auto Arena = std::make_unique<TermArena>();
  Result<CompiledProgram> P = makeError("no units");
  if (Units.size() == 1) {
    P = compileSource(Units[0].second, *Syms, *Arena);
  } else if (!Units.empty()) {
    // Separate compilation + link. The compiled unit objects are
    // link-time scaffolding only: the linked module copies (and
    // relocates) everything it needs, so they die with this scope.
    std::vector<CompiledProgram> Compiled;
    Compiled.reserve(Units.size());
    for (const auto &[ULabel, USource] : Units) {
      Result<CompiledProgram> C = compileSource(USource, *Syms, *Arena);
      if (!C) {
        R.Err += "error: " + ULabel + ": " + C.diag().str() + "\n";
        return;
      }
      Compiled.push_back(C.take());
    }
    std::vector<ModuleUnit> In;
    In.reserve(Units.size());
    for (size_t I = 0; I != Units.size(); ++I)
      In.push_back({&Compiled[I], Units[I].first});
    Result<LinkedProgram> L = linkPrograms(In);
    if (!L) {
      R.Err += "link error: " + L.diag().str() + "\n";
      return;
    }
    for (const std::string &W : L->UnresolvedImports)
      Warnings += "warning: " + W + "\n";
    R.Err += Warnings;
    P = std::move(L->Program);
  }
  if (!P) {
    R.Err += "error: " + P.diag().str() + "\n";
    return;
  }
  std::pair<uint64_t, std::string> Key{P->Module->fingerprint(),
                                       CS.DomainName};
  std::lock_guard<std::mutex> L(GM);
  auto It = Slots.find(Key);
  if (It != Slots.end()) {
    Reuse(*It->second);
    return;
  }
  auto S = std::make_unique<StoreSlot>();
  S->Fp = Key.first;
  S->DomainName = CS.DomainName;
  S->Label = Label;
  S->Units = Units;
  S->Warnings = std::move(Warnings);
  S->Syms = std::move(Syms);
  S->Arena = std::move(Arena);
  S->Program = std::move(P);
  ensureSession(*S);
  CS.Cursor = S.get();
  CS.Cursor->LastTouch = ++TouchClock;
  BySource.emplace(TextHash, S.get());
  Slots.emplace(std::move(Key), std::move(S));
  R.Err += "loaded " + Label + "\n";
}

void AnalysisServer::ensureSession(StoreSlot &S) {
  if (S.Session)
    return;
  AnalyzerOptions O = Cfg.Options;
  O.DomainName = S.DomainName;
  S.Session = std::make_unique<AnalysisSession>(*S.Program, O);
  S.Live = true;
  if (S.WasEvicted) {
    S.WasEvicted = false;
    ++S.Rewarms;
    ++NRewarms;
  }
}

void AnalysisServer::meterBytes(StoreSlot &S) {
  const AnalysisStore *St = S.Session ? S.Session->store() : nullptr;
  S.Bytes = St ? St->bytesUsed() : 0;
}

void AnalysisServer::answer(
    ClientState &CS, const std::string &Key, const std::string &Spec,
    const std::function<Result<std::string>(AnalysisSession &)> &Drain,
    Response &R) {
  StoreSlot &S = *CS.Cursor;
  auto Cached = [&] {
    std::lock_guard<std::mutex> CL(S.CacheMu);
    auto Hit = S.RespCache.find(Key);
    if (Hit == S.RespCache.end())
      return false;
    R.Out = Hit->second;
    return true;
  };
  bool Hit = Cached();
  // Counted after the first look, so an observer that reads K queries
  // knows K requests are past it (ServerTest stages its one-drain case on
  // this).
  ++NQueries;
  bool Drained = false;
  if (Hit) {
    ++S.Hits;
    ++NCacheHits;
  } else {
    std::unique_lock<std::shared_mutex> SL(S.Mu);
    // A request that held the lock meanwhile may have cached this answer:
    // identical concurrent queries queue here and cost one drain.
    if (Cached()) {
      ++NCoalesced;
    } else {
      ensureSession(S);
      ++S.Drains;
      ++NDrains;
      Drained = true;
      Result<std::string> Out = Drain(*S.Session);
      if (Out) {
        R.Out = Out.take();
        // Cached before the lock is released, so no waiter misses it.
        // Only successes memoize: the response of a failed drain (budget
        // hit, machine error) is not a stable function of the slot key.
        std::lock_guard<std::mutex> CL(S.CacheMu);
        S.RespCache.emplace(Key, R.Out);
      } else {
        R.Err = "analysis error: " + Out.diag().str() + "\n";
      }
      meterBytes(S);
    }
  }
  S.LastTouch = ++TouchClock;
  if (R.Err.empty())
    CS.LastSpec[&S] = Spec;
  if (Drained)
    maybeEvict(&S);
}

void AnalysisServer::doQuery(ClientState &CS, const std::string &Verb,
                             const std::string &Rest, Response &R) {
  std::vector<std::string> Specs;
  if (Verb == "entry") {
    if (Rest.empty()) {
      R.Err = "entry what? (entry qsort(glist, var, var))\n";
      return;
    }
  } else {
    std::stringstream SS(Rest);
    std::string Part;
    while (std::getline(SS, Part, ';')) {
      Part = trim(Part);
      if (!Part.empty())
        Specs.push_back(Part);
    }
    if (Specs.empty()) {
      R.Err = "batch what? (batch main; app(glist, var, var))\n";
      return;
    }
  }
  const CompiledProgram &Program = *CS.Cursor->Program;
  bool Modes = CS.ShowModes;
  auto Drain = [&](AnalysisSession &A) -> Result<std::string> {
    if (Verb == "entry") {
      Result<AnalysisResult> E = A.analyze(Rest);
      if (!E)
        return E.diag();
      return formatReport(*E, Program, Modes);
    }
    Result<std::vector<AnalysisResult>> B = A.analyzeBatch(Specs);
    if (!B)
      return B.diag();
    std::string Out;
    for (size_t I = 0; I != Specs.size(); ++I)
      Out += "== entry " + Specs[I] + " ==\n" +
             formatReport((*B)[I], Program, Modes);
    return Out;
  };
  // This client's next `edit` re-answers the entry, or a batch's last spec.
  answer(CS, std::string(Modes ? "m:" : "p:") + Verb + ":" + Rest,
         Verb == "entry" ? Rest : Specs.back(), Drain, R);
}

void AnalysisServer::doEdit(ClientState &CS, const std::string &Rest,
                            Response &R) {
  std::optional<PredSig> Sig = parsePredSig(Rest);
  if (!Sig) {
    R.Err = "bad edit '" + Rest + "': expected name/arity\n";
    return;
  }
  StoreSlot &S = *CS.Cursor;
  auto SpecIt = CS.LastSpec.find(&S);
  if (SpecIt == CS.LastSpec.end()) {
    R.Err = "analysis error: reanalyze requires a prior analyze()\n";
    return;
  }
  {
    std::unique_lock<std::shared_mutex> SL(S.Mu);
    ensureSession(S);
    ++S.Drains;
    ++NDrains;
    Result<AnalysisResult> A =
        S.Session->reanalyze({*Sig}, SpecIt->second);
    if (!A)
      R.Err = "analysis error: " + A.diag().str() + "\n";
    else
      R.Out = formatReport(*A, *S.Program, CS.ShowModes);
    meterBytes(S);
    // The edit invalidated part of the store; memoized response bytes of
    // this slot are stale by assumption (even though touch-edits happen to
    // recompute the same bytes, correctness must not rely on that here).
    // Cleared under the writer lock, so a request that waited on it never
    // finds a pre-edit answer.
    std::lock_guard<std::mutex> CL(S.CacheMu);
    S.RespCache.clear();
  }
  S.LastTouch = ++TouchClock;
  maybeEvict(&S);
}

void AnalysisServer::doOptimize(ClientState &CS, const std::string &Rest,
                                Response &R) {
  if (std::string Err = specializationDomainError(CS.DomainName, "optimize");
      !Err.empty()) {
    R.Err = Err + "\n";
    return;
  }
  std::string Spec = Rest;
  if (Spec.empty()) {
    auto SpecIt = CS.LastSpec.find(CS.Cursor);
    if (SpecIt == CS.LastSpec.end()) {
      R.Err = "optimize what? (optimize qsort(glist, var, var), or run an "
              "entry first)\n";
      return;
    }
    Spec = SpecIt->second;
  }
  const CompiledProgram &Program = *CS.Cursor->Program;
  // The response is a pure function of (module, domain, spec) — the
  // report toggle does not apply — so it caches under its own key prefix.
  answer(CS, "o:" + Spec, Spec,
         [&](AnalysisSession &A) -> Result<std::string> {
           Result<AnalysisResult> E = A.analyze(Spec);
           if (!E)
             return E.diag();
           SpecializationReport Rep;
           CompiledProgram Opt = specializeProgram(
               Program, buildSpecializationFacts(*E, Program), Rep);
           return formatSpecialization(*Opt.Module, Rep);
         },
         R);
}

void AnalysisServer::doExport(ClientState &CS, const std::string &Rest,
                              Response &R) {
  if (Rest.empty() || Rest.find(' ') != std::string::npos) {
    R.Err = "export what? (export TAG)\n";
    return;
  }
  StoreSlot &S = *CS.Cursor;
  std::string Bytes;
  {
    // Exclusive: ensureSession may create the session, and export walks
    // the store's journals, which a concurrent drain would mutate.
    std::unique_lock<std::shared_mutex> SL(S.Mu);
    ensureSession(S);
    Result<std::string> B = S.Session->exportSummaries();
    if (!B) {
      R.Err = "export error: " + B.diag().str() + "\n";
      return;
    }
    Bytes = B.take();
    meterBytes(S);
  }
  S.LastTouch = ++TouchClock;
  size_t N = Bytes.size();
  {
    std::lock_guard<std::mutex> L(BundleMu);
    Bundles[Rest] = std::move(Bytes);
  }
  R.Err = "exported " + std::to_string(N) + " summary bytes to bundle '" +
          Rest + "'\n";
}

void AnalysisServer::doImport(ClientState &CS, const std::string &Rest,
                              Response &R) {
  if (Rest.empty() || Rest.find(' ') != std::string::npos) {
    R.Err = "import what? (import TAG; export one first)\n";
    return;
  }
  std::string Bytes;
  {
    std::lock_guard<std::mutex> L(BundleMu);
    auto It = Bundles.find(Rest);
    if (It == Bundles.end()) {
      R.Err = "unknown bundle '" + Rest + "' (export TAG first)\n";
      return;
    }
    Bytes = It->second;
  }
  StoreSlot &S = *CS.Cursor;
  Result<AnalysisStore::ImportStats> IS = makeError("unreachable");
  {
    std::unique_lock<std::shared_mutex> SL(S.Mu);
    ensureSession(S);
    IS = S.Session->importSummaries(Bytes);
    if (IS)
      meterBytes(S);
  }
  S.LastTouch = ++TouchClock;
  if (!IS) {
    R.Err = "import error: " + IS.diag().str() + "\n";
    return;
  }
  // Imported traces are warm-start hints, not answers: the response cache
  // stays valid (byte-identity is the store's contract either way).
  R.Err = "imported " + std::to_string(IS->Banked) + "/" +
          std::to_string(IS->BundleTraces) + " traces from bundle '" + Rest +
          "' (" + std::to_string(IS->DroppedStale) + " stale, " +
          std::to_string(IS->DroppedUnresolved) + " unresolved dropped)\n";
  maybeEvict(&S);
}

void AnalysisServer::doDump(ClientState &CS, Response &R) {
  StoreSlot &S = *CS.Cursor;
  std::shared_lock<std::shared_mutex> SL(S.Mu);
  const AnalysisStore *St = S.Session ? S.Session->store() : nullptr;
  if (!St) {
    R.Err = "no store yet (run an entry first)\n";
    return;
  }
  std::string D = St->canonicalDump(*S.Syms);
  R.Out = D;
  if (!D.empty() && D.back() != '\n')
    R.Out += "\n";
  S.LastTouch = ++TouchClock;
}

void AnalysisServer::doStats(ClientState &CS, Response &R) {
  Stats T = stats();
  char Buf[512];
  std::snprintf(Buf, sizeof(Buf),
                "server: requests %llu, queries %llu (response-cache hits "
                "%llu, coalesced %llu), drains %llu, compiles %llu\n"
                "stores: live %llu, bytes %llu (cap %llu), evictions %llu "
                "(bytes %llu), rewarms %llu\n"
                "bundles: %llu tagged, %llu bytes\n",
                (unsigned long long)T.Requests, (unsigned long long)T.Queries,
                (unsigned long long)T.CacheHits,
                (unsigned long long)T.Coalesced, (unsigned long long)T.Drains,
                (unsigned long long)T.Compiles,
                (unsigned long long)T.LiveStores,
                (unsigned long long)T.LiveBytes,
                (unsigned long long)Cfg.MaxStoreBytes,
                (unsigned long long)T.Evictions,
                (unsigned long long)T.EvictedBytes,
                (unsigned long long)T.Rewarms, (unsigned long long)T.Bundles,
                (unsigned long long)T.BundleBytes);
  R.Out += Buf;
  // Per-store lines in identity order (label, domain) — never slot-map or
  // touch order, both of which depend on interleaving. Labels are
  // unbounded, so no fixed buffer.
  std::vector<StoreSlot *> All;
  {
    std::lock_guard<std::mutex> L(GM);
    for (auto &[K, S] : Slots)
      All.push_back(S.get());
  }
  std::sort(All.begin(), All.end(), [](StoreSlot *A, StoreSlot *B) {
    return std::tie(A->Label, A->DomainName) <
           std::tie(B->Label, B->DomainName);
  });
  for (StoreSlot *S : All)
    R.Out += "store " + S->Label + " [" + S->DomainName + "]: bytes " +
             std::to_string(S->Bytes.load()) + ", hits " +
             std::to_string(S->Hits.load()) + ", drains " +
             std::to_string(S->Drains.load()) + ", evictions " +
             std::to_string(S->Evictions.load()) + ", rewarms " +
             std::to_string(S->Rewarms.load()) + "\n";
  // The current slot's deep store statistics, as the single-client REPL
  // printed them (plus the journal-compaction line).
  StoreSlot &S = *CS.Cursor;
  std::shared_lock<std::shared_mutex> SL(S.Mu);
  const AnalysisStore *St = S.Session ? S.Session->store() : nullptr;
  if (!St) {
    R.Err = "no store yet (run an entry first)\n";
    return;
  }
  const AnalysisStore::Stats &SS = St->stats();
  char Deep[1024];
  std::snprintf(
      Deep, sizeof(Deep),
      "queries: %llu (cache hits %llu, cold %llu, warm %llu)\n"
      "runs: %llu replayed, %llu executed; activations: %llu "
      "replayed, %llu executed\n"
      "store: %llu roots, %llu entries (%llu new, %llu shared)\n"
      "reanalyses: %llu (roots invalidated %llu, entries "
      "invalidated %llu)\n"
      "journals: %llu compactions, %llu trace handles dropped\n",
      (unsigned long long)SS.Queries, (unsigned long long)SS.CacheHits,
      (unsigned long long)SS.ColdQueries, (unsigned long long)SS.WarmQueries,
      (unsigned long long)SS.ReplayedRuns, (unsigned long long)SS.ExecutedRuns,
      (unsigned long long)SS.ReplayedActivations,
      (unsigned long long)SS.ExecutedActivations,
      (unsigned long long)St->numRoots(), (unsigned long long)St->table().size(),
      (unsigned long long)SS.NewEntries, (unsigned long long)SS.SharedEntries,
      (unsigned long long)SS.Reanalyses, (unsigned long long)SS.InvalidatedRoots,
      (unsigned long long)SS.InvalidatedEntries,
      (unsigned long long)SS.Compactions,
      (unsigned long long)SS.CompactedTraces);
  R.Out += Deep;
  S.LastTouch = ++TouchClock;
}

void AnalysisServer::maybeEvict(StoreSlot *Keep) {
  if (Cfg.MaxStoreBytes == 0)
    return;
  uint64_t Total = 0;
  std::vector<StoreSlot *> Victims;
  {
    std::lock_guard<std::mutex> L(GM);
    for (auto &[K, S] : Slots) {
      Total += S->Bytes.load();
      if (S.get() != Keep)
        Victims.push_back(S.get());
    }
  }
  if (Total <= Cfg.MaxStoreBytes)
    return;
  std::sort(Victims.begin(), Victims.end(), [](StoreSlot *A, StoreSlot *B) {
    return A->LastTouch.load() < B->LastTouch.load();
  });
  for (StoreSlot *V : Victims) {
    if (Total <= Cfg.MaxStoreBytes)
      break;
    // try_lock only: never stall on (or deadlock with) a slot mid-drain —
    // a busy slot is re-metered, and re-considered, at its next writer op.
    std::unique_lock<std::shared_mutex> SL(V->Mu, std::try_to_lock);
    if (!SL.owns_lock() || !V->Session)
      continue;
    uint64_t B = V->Bytes.exchange(0);
    V->Session.reset();
    V->Live = false;
    V->WasEvicted = true;
    ++V->Evictions;
    ++NEvictions;
    NEvictedBytes += B;
    {
      // Dropping the memoized responses with the store keeps "evicted"
      // meaningful: the next touch truly re-warms (and re-verifies) from
      // a cold store instead of serving bytes the store no longer backs.
      std::lock_guard<std::mutex> CL(V->CacheMu);
      V->RespCache.clear();
    }
    Total -= B;
  }
}

AnalysisServer::Stats AnalysisServer::stats() const {
  Stats T;
  T.Requests = NRequests.load();
  T.Queries = NQueries.load();
  T.Drains = NDrains.load();
  T.Compiles = NCompiles.load();
  T.CacheHits = NCacheHits.load();
  T.Coalesced = NCoalesced.load();
  T.Evictions = NEvictions.load();
  T.EvictedBytes = NEvictedBytes.load();
  T.Rewarms = NRewarms.load();
  {
    std::lock_guard<std::mutex> L(BundleMu);
    T.Bundles = Bundles.size();
    for (const auto &[Tag, Bytes] : Bundles)
      T.BundleBytes += Bytes.size();
  }
  std::lock_guard<std::mutex> L(GM);
  for (const auto &[K, S] : Slots) {
    if (S->Live.load())
      ++T.LiveStores;
    T.LiveBytes += S->Bytes.load();
  }
  return T;
}

std::unique_lock<std::shared_mutex>
AnalysisServer::lockCurrentStoreForTest(int Client) {
  StoreSlot *S = nullptr;
  {
    std::lock_guard<std::mutex> L(GM);
    auto It = Clients.find(Client);
    if (It != Clients.end())
      S = It->second->Cursor;
  }
  if (!S)
    return std::unique_lock<std::shared_mutex>();
  return std::unique_lock<std::shared_mutex>(S->Mu);
}
