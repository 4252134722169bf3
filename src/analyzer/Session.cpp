//===- analyzer/Session.cpp - Driver wiring -------------------------------===//

#include "analyzer/Session.h"

#include "analyzer/Domain.h"

#include <algorithm>

using namespace awam;

AnalysisSession::AnalysisSession(const CompiledProgram &Program,
                                 AnalyzerOptions Options)
    : Program(&Program), Options(Options) {}

AnalysisSession::AnalysisSession(std::unique_ptr<Backend> Custom,
                                 AnalyzerOptions Options)
    : Custom(std::move(Custom)), Options(Options) {}

AnalysisSession::AnalysisSession(AnalysisSession &&) noexcept = default;
AnalysisSession &
AnalysisSession::operator=(AnalysisSession &&) noexcept = default;
AnalysisSession::~AnalysisSession() = default;

const WorklistScheduler::Stats *AnalysisSession::schedulerStats() const {
  if (IncSched)
    return &IncSched->stats();
  return Scheduler ? &Scheduler->stats() : nullptr;
}

const IncrementalScheduler::ReanalyzeStats *
AnalysisSession::reanalyzeStats() const {
  return IncSched ? &IncSched->reanalyzeStats() : nullptr;
}

const SchedulerCore *AnalysisSession::lastCore() const {
  if (IncSched)
    return &IncSched->core();
  return Scheduler ? &Scheduler->core() : nullptr;
}

Result<AnalysisResult> AnalysisSession::analyze(std::string_view EntrySpec) {
  Result<std::pair<std::string, Pattern>> Parsed = parseEntrySpec(EntrySpec);
  if (!Parsed)
    return Parsed.diag();
  return analyze(Parsed->first, Parsed->second);
}

Result<AnalysisResult> AnalysisSession::analyze(std::string_view Name,
                                                const Pattern &Entry) {
  if (Custom)
    return Custom->analyze(Name, Entry);
  if (Options.Persistent) {
    Result<AnalysisStore *> S = ensureStore();
    if (!S)
      return S.diag();
    return (*S)->query(Name, Entry);
  }
  return analyzeCompiled(Name, Entry);
}

Result<AnalysisStore *> AnalysisSession::ensureStore() {
  if (PStore)
    return PStore.get();
  if (!Program)
    return makeError("persistent sessions require the compiled backend");
  if (Options.Driver != DriverKind::Worklist || !Options.UseInterning)
    return makeError(
        "persistent sessions require the worklist driver with interning");
  Result<const Domain *> D = resolveDomain(Options.DomainName);
  if (!D)
    return D.diag();
  Dom = *D;
  PStore = std::make_unique<AnalysisStore>(*Program, Options);
  return PStore.get();
}

Result<std::string> AnalysisSession::exportSummaries() {
  Result<AnalysisStore *> S = ensureStore();
  if (!S)
    return S.diag();
  return (*S)->exportSummaries();
}

Result<AnalysisStore::ImportStats>
AnalysisSession::importSummaries(std::string_view Bytes) {
  Result<AnalysisStore *> S = ensureStore();
  if (!S)
    return S.diag();
  return (*S)->importSummaries(Bytes);
}

Result<std::vector<AnalysisResult>>
AnalysisSession::analyzeBatch(const std::vector<std::string> &EntrySpecs) {
  // Validate the whole batch before running anything: parse every spec and
  // resolve every entry predicate, so a typo at position N cannot waste
  // the N-1 analyses before it (or leave a store mid-list).
  std::vector<std::pair<std::string, Pattern>> Parsed;
  Parsed.reserve(EntrySpecs.size());
  for (const std::string &Spec : EntrySpecs) {
    Result<std::pair<std::string, Pattern>> P = parseEntrySpec(Spec);
    if (!P)
      return P.diag();
    if (Program) {
      const CodeModule &M = *Program->Module;
      Symbol Sym = M.symbols().lookup(P->first);
      int Arity = static_cast<int>(P->second.Roots.size());
      if (Sym == ~0u || M.findPredicate(Sym, Arity) < 0)
        return makeError(
            undefinedPredicateMessage(M, "entry", P->first, Arity));
    }
    Parsed.push_back(std::move(*P));
  }
  // One warm store across the batch whenever the configuration can back
  // one; otherwise (custom backend, naive driver, no interning) each spec
  // runs as an independent scratch analysis.
  AnalysisStore *Batch = nullptr;
  if (Program && Options.Driver == DriverKind::Worklist &&
      Options.UseInterning) {
    Result<AnalysisStore *> S = ensureStore();
    if (!S)
      return S.diag();
    Batch = *S;
  }
  std::vector<AnalysisResult> Out;
  Out.reserve(Parsed.size());
  for (const auto &[Name, Entry] : Parsed) {
    Result<AnalysisResult> R =
        Batch ? Batch->query(Name, Entry) : analyze(Name, Entry);
    if (!R)
      return R.diag();
    Out.push_back(std::move(*R));
  }
  return Out;
}

void AnalysisSession::setBudgets(int MaxIterations, uint64_t MaxSteps) {
  Options.MaxIterations = MaxIterations;
  Options.MaxSteps = MaxSteps;
  if (PStore)
    PStore->setBudgets(MaxIterations, MaxSteps);
}

Result<AnalysisResult>
AnalysisSession::analyzeCompiled(std::string_view Name,
                                 const Pattern &Entry) {
  CodeModule &M = *Program->Module;
  Symbol Sym = M.symbols().lookup(Name);
  int Arity = static_cast<int>(Entry.Roots.size());
  int32_t Pid = Sym == ~0u ? -1 : M.findPredicate(Sym, Arity);
  if (Pid < 0)
    return makeError(undefinedPredicateMessage(M, "entry", Name, Arity));
  LastEntryName.assign(Name);
  LastEntry = Entry;
  HaveEntry = true;

  Result<const Domain *> D = resolveDomain(Options.DomainName);
  if (!D)
    return D.diag();
  if (*D != &defaultDomain() && !Options.UseInterning)
    return makeError("abstract domain '" + Options.DomainName +
                     "' requires the interned fast path (UseInterning)");
  Dom = *D;

  // Fresh run state: each analyze() computes its fixpoint from scratch.
  Interner.reset();
  Scheduler.reset();
  IncSched.reset();
  if (Options.UseInterning)
    Interner = std::make_unique<PatternInterner>(Options.DepthLimit, Dom);
  Table = std::make_unique<ExtensionTable>(Options.TableImpl,
                                           Interner.get());
  AbsMachineOptions MachineOptions;
  MachineOptions.DepthLimit = Options.DepthLimit;
  MachineOptions.MaxSteps = Options.MaxSteps;
  MachineOptions.Dom = Dom;
  Machine = std::make_unique<AbstractMachine>(*Program, *Table,
                                              MachineOptions);
  // Trace recording is a worklist-protocol feature (runActivation); the
  // naive driver's runIteration never journals.
  Journal.reset();
  if (Options.Incremental && Options.Driver == DriverKind::Worklist)
    Journal = std::make_unique<RunJournal>(M);
  Machine->setRunJournal(Journal.get());

  AnalysisResult R;
  if (Options.Driver == DriverKind::Naive) {
    for (int Iter = 0; Iter != Options.MaxIterations; ++Iter) {
      AbsRunStatus Status = Machine->runIteration(Pid, Entry);
      ++R.Iterations;
      if (Status == AbsRunStatus::Error)
        return makeError("abstract machine error: " +
                         Machine->errorMessage());
      if (!Machine->changedSinceLastRun()) {
        R.Converged = true;
        break;
      }
    }
  } else {
    // Worklist driver: create the entry activation, then let the
    // scheduler drain the dependency-directed queue.
    bool Created = false;
    ETEntry &Root =
        Interner ? Table->findOrCreate(
                       Pid, Interner->internNormalized(Entry), Created)
                 : Table->findOrCreate(Pid, Entry, Created);
    Scheduler = std::make_unique<WorklistScheduler>(*Table, *Machine);
    WorklistScheduler::Status Status =
        Scheduler->run(Root, Options.MaxIterations);
    if (Status == WorklistScheduler::Status::Error)
      return makeError("abstract machine error: " + Machine->errorMessage());
    const WorklistScheduler::Stats &SS = Scheduler->stats();
    R.Converged = Status == WorklistScheduler::Status::Converged;
    R.Iterations = static_cast<int>(SS.Sweeps);
    R.Counters.SchedulerRuns = SS.Runs;
    R.Counters.DepEdges = SS.EdgesRecorded;
  }

  finishResult(R);
  return R;
}

//===----------------------------------------------------------------------===//
// Incremental re-analysis
//===----------------------------------------------------------------------===//
// The clause-level program diff (instrEquiv / diffPrograms) lives in
// Incremental.cpp — the AnalysisStore's cone invalidation shares it.

uint64_t AnalysisSession::coneSize(
    const std::vector<PredSig> &Edited) const {
  const SchedulerCore *Core = lastCore();
  if (!Core || !Table || !Program)
    return 0;
  const CodeModule &M = *Program->Module;
  std::vector<char> IsEdited(static_cast<size_t>(M.numPredicates()), 0);
  for (const PredSig &Sig : Edited) {
    Symbol Sym = M.symbols().lookup(Sig.Name);
    int32_t Pid = Sym == ~0u ? -1 : M.findPredicate(Sym, Sig.Arity);
    if (Pid >= 0)
      IsEdited[Pid] = 1;
  }
  std::vector<int32_t> Seeds;
  for (const ETEntry &E : Table->entries())
    if (static_cast<size_t>(E.PredId) < IsEdited.size() &&
        IsEdited[E.PredId])
      Seeds.push_back(E.Idx);
  std::vector<char> Mark = Core->reverseClosure(Seeds);
  return static_cast<uint64_t>(
      std::count(Mark.begin(), Mark.end(), char(1)));
}

/// Edit signatures are user input (--edit flags, server edit verbs): one
/// naming a predicate the program never mentions — or an existing name at
/// the wrong arity — is a typo, and silently analyzing with an empty edit
/// cone would just echo the old result. Returns the near-miss diagnostic,
/// or the empty string when every signature resolves. (The recompiled-
/// program overload reanalyze(CompiledProgram) stays lenient on purpose:
/// its diff legitimately names removed predicates.)
static std::string validateEditSigs(const CompiledProgram *Program,
                                    const std::vector<PredSig> &Edited) {
  if (!Program)
    return {};
  const CodeModule &M = *Program->Module;
  for (const PredSig &Sig : Edited) {
    Symbol Sym = M.symbols().lookup(Sig.Name);
    if (Sym == ~0u || M.findPredicate(Sym, Sig.Arity) < 0)
      return undefinedPredicateMessage(M, "edited", Sig.Name, Sig.Arity);
  }
  return {};
}

Result<AnalysisResult>
AnalysisSession::reanalyze(const std::vector<PredSig> &EditedPreds) {
  if (Custom)
    return makeError("reanalyze requires the compiled backend");
  if (std::string Err = validateEditSigs(
          Program ? Program : (PStore ? &PStore->program() : nullptr),
          EditedPreds);
      !Err.empty())
    return makeError(std::move(Err));
  if (PStore)
    return PStore->reanalyze(EditedPreds);
  if (!HaveEntry)
    return makeError("reanalyze requires a prior analyze()");
  uint64_t Cone = coneSize(EditedPreds);
  return reanalyzeCompiled(EditedPreds, Cone);
}

Result<AnalysisResult>
AnalysisSession::reanalyze(const std::vector<PredSig> &EditedPreds,
                           std::string_view EntrySpec) {
  // Route through the store even on a fresh session (the server edits
  // right after re-warming an evicted store): an empty store invalidates
  // nothing and answers the spec cold, which is the correct degenerate
  // case.
  Result<AnalysisStore *> S = ensureStore();
  if (!S)
    return S.diag();
  if (std::string Err = validateEditSigs(&(*S)->program(), EditedPreds);
      !Err.empty())
    return makeError(std::move(Err));
  Result<std::pair<std::string, Pattern>> Parsed = parseEntrySpec(EntrySpec);
  if (!Parsed)
    return Parsed.diag();
  return (*S)->reanalyze(EditedPreds, Parsed->first, Parsed->second);
}

Result<AnalysisResult>
AnalysisSession::reanalyze(const CompiledProgram &Edited) {
  if (Custom)
    return makeError("reanalyze requires the compiled backend");
  if (PStore) {
    Result<AnalysisResult> R = PStore->reanalyze(Edited);
    Program = &PStore->program();
    return R;
  }
  if (!HaveEntry)
    return makeError("reanalyze requires a prior analyze()");
  // Diff and cone are computed against the outgoing program/core, before
  // the edited program is installed.
  std::vector<PredSig> Edits = diffPrograms(*Program, Edited);
  uint64_t Cone = coneSize(Edits);
  Program = &Edited;
  return reanalyzeCompiled(Edits, Cone);
}

Result<AnalysisResult>
AnalysisSession::reanalyzeCompiled(const std::vector<PredSig> &Edited,
                                   uint64_t ConeEntries) {
  // Nothing recorded to replay (Incremental off, naive driver, or the
  // previous run predates the feature): a fresh analysis of the current
  // program is trivially byte-identical to itself.
  if (!Journal || Options.Driver != DriverKind::Worklist)
    return analyzeCompiled(LastEntryName, LastEntry);

  CodeModule &M = *Program->Module;
  Symbol Sym = M.symbols().lookup(LastEntryName);
  int Arity = static_cast<int>(LastEntry.Roots.size());
  int32_t Pid = Sym == ~0u ? -1 : M.findPredicate(Sym, Arity);
  if (Pid < 0)
    return makeError(
        undefinedPredicateMessage(M, "entry", LastEntryName, Arity));

  // The outgoing run's journal feeds this drain; a fresh journal records
  // it in turn (replays carry their traces over) for the next link of the
  // chain.
  std::unique_ptr<RunJournal> PrevJournal = std::move(Journal);
  uint64_t PrevEntries = Table ? Table->size() : 0;

  // Fresh run state, exactly as analyzeCompiled builds it: replay
  // validation reconstructs everything the edit left valid.
  Result<const Domain *> D = resolveDomain(Options.DomainName);
  if (!D)
    return D.diag();
  if (*D != &defaultDomain() && !Options.UseInterning)
    return makeError("abstract domain '" + Options.DomainName +
                     "' requires the interned fast path (UseInterning)");
  Dom = *D;
  Interner.reset();
  Scheduler.reset();
  IncSched.reset();
  if (Options.UseInterning)
    Interner = std::make_unique<PatternInterner>(Options.DepthLimit, Dom);
  Table = std::make_unique<ExtensionTable>(Options.TableImpl,
                                           Interner.get());
  AbsMachineOptions MachineOptions;
  MachineOptions.DepthLimit = Options.DepthLimit;
  MachineOptions.MaxSteps = Options.MaxSteps;
  MachineOptions.Dom = Dom;
  Machine = std::make_unique<AbstractMachine>(*Program, *Table,
                                              MachineOptions);
  Journal = std::make_unique<RunJournal>(M);
  Machine->setRunJournal(Journal.get());

  bool Created = false;
  ETEntry &Root =
      Interner ? Table->findOrCreate(Pid, Interner->internNormalized(LastEntry),
                                     Created)
               : Table->findOrCreate(Pid, LastEntry, Created);
  IncSched = std::make_unique<IncrementalScheduler>(
      *Table, *Machine, M, *PrevJournal, Edited, Journal.get(),
      Options.MaxSteps);
  IncSched->reanalyzeStats().PrevEntries = PrevEntries;
  IncSched->reanalyzeStats().ConeEntries = ConeEntries;
  WorklistScheduler::Status Status = IncSched->run(Root, Options.MaxIterations);
  if (Status == WorklistScheduler::Status::Error)
    return makeError("abstract machine error: " + Machine->errorMessage());

  AnalysisResult R;
  const WorklistScheduler::Stats &SS = IncSched->stats();
  R.Converged = Status == WorklistScheduler::Status::Converged;
  R.Iterations = static_cast<int>(SS.Sweeps);
  R.Counters.SchedulerRuns = SS.Runs;
  R.Counters.DepEdges = SS.EdgesRecorded;
  finishResult(R);
  return R;
}

void AnalysisSession::finishResult(AnalysisResult &R) {
  R.Instructions = Machine->stepsExecuted();
  R.TableProbes = Table->probeCount();
  R.Counters.Instructions = R.Instructions;
  R.Counters.ETProbes = R.TableProbes;
  R.Counters.ActivationRuns = Machine->activationsExplored();
  if (Interner) {
    const InternerStats &IS = Interner->stats();
    R.Counters.InternHits = IS.InternHits;
    R.Counters.InternMisses = IS.InternMisses;
    R.Counters.LubCacheHits = IS.LubCacheHits;
    R.Counters.LubCacheMisses = IS.LubCacheMisses;
    R.Counters.LeqCacheHits = IS.LeqCacheHits;
    R.Counters.LeqCacheMisses = IS.LeqCacheMisses;
    R.Counters.DistinctPatterns = Interner->size();
  }
  const CodeModule &M = *Program->Module;
  for (const ETEntry &E : Table->entries())
    R.Items.push_back(
        {E.PredId, M.predicateLabel(E.PredId), E.Call, E.Success});
  R.Dom = Dom;
}
