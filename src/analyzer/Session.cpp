//===- analyzer/Session.cpp - Driver wiring -------------------------------===//

#include "analyzer/Session.h"

#include "analyzer/AbstractMachine.h"
#include "analyzer/Domain.h"

using namespace awam;

AnalysisSession::AnalysisSession(const CompiledProgram &Program,
                                 AnalyzerOptions Options)
    : Program(&Program), Options(Options) {}

Result<AnalysisResult> AnalysisSession::analyze(std::string_view EntrySpec) {
  Result<std::pair<std::string, Pattern>> Parsed = parseEntrySpec(EntrySpec);
  if (!Parsed)
    return Parsed.diag();
  return analyze(Parsed->first, Parsed->second);
}

/// The PredId of entry \p Name / \p Entry in \p M, or the near-miss
/// diagnostic.
static Result<int32_t> resolveEntry(const CodeModule &M, std::string_view Name,
                                    const Pattern &Entry) {
  Symbol Sym = M.symbols().lookup(Name);
  int Arity = static_cast<int>(Entry.Roots.size());
  int32_t Pid = Sym == ~0u ? -1 : M.findPredicate(Sym, Arity);
  if (Pid < 0)
    return makeError(undefinedPredicateMessage(M, "entry", Name, Arity));
  return Pid;
}

Result<AnalysisResult> AnalysisSession::analyze(std::string_view Name,
                                                const Pattern &Entry) {
  AnalysisStore *S = nullptr;
  if (Options.Driver == DriverKind::Worklist) {
    Result<AnalysisStore *> St = ensureStore();
    if (!St)
      return St.diag();
    S = *St;
  }
  Result<int32_t> Pid = resolveEntry(*Program->Module, Name, Entry);
  if (!Pid)
    return Pid.diag();
  LastEntryName.assign(Name);
  LastEntry = Entry;
  HaveEntry = true;
  return S ? S->query(Name, Entry) : analyzeNaive(*Pid, Entry);
}

Result<AnalysisStore *> AnalysisSession::ensureStore() {
  if (PStore)
    return PStore.get();
  if (Options.Driver != DriverKind::Worklist)
    return makeError("the analysis store (reanalyze, batches, summary "
                     "bundles) requires the worklist driver");
  if (!Options.UseInterning)
    return makeError("the worklist driver requires the interned fast path "
                     "(UseInterning)");
  // The store falls back to the default domain on unknown names; reject
  // them here with the registered list instead.
  if (Result<const Domain *> D = resolveDomain(Options.DomainName); !D)
    return D.diag();
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
    if (Result<int32_t> Pid = resolveEntry(*Program->Module, P->first,
                                           P->second);
        !Pid)
      return Pid.diag();
    Parsed.push_back(std::move(*P));
  }
  // One warm store across the batch.
  Result<AnalysisStore *> S = ensureStore();
  if (!S)
    return S.diag();
  std::vector<AnalysisResult> Out;
  Out.reserve(Parsed.size());
  for (const auto &[Name, Entry] : Parsed) {
    Result<AnalysisResult> R = (*S)->query(Name, Entry);
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

Result<AnalysisResult> AnalysisSession::analyzeNaive(int32_t Pid,
                                                     const Pattern &Entry) {
  Result<const Domain *> D = resolveDomain(Options.DomainName);
  if (!D)
    return D.diag();
  if (*D != &defaultDomain() && !Options.UseInterning)
    return makeError("abstract domain '" + Options.DomainName +
                     "' requires the interned fast path (UseInterning)");
  const Domain *Dom = *D;

  // Fresh run state: each analyze() computes its fixpoint from scratch.
  std::unique_ptr<PatternInterner> Interner;
  if (Options.UseInterning)
    Interner = std::make_unique<PatternInterner>(Options.DepthLimit, Dom);
  ExtensionTable Table(Options.TableImpl, Interner.get());
  AbsMachineOptions MachineOptions;
  MachineOptions.DepthLimit = Options.DepthLimit;
  MachineOptions.MaxSteps = Options.MaxSteps;
  MachineOptions.Dom = Dom;
  AbstractMachine Machine(*Program, Table, MachineOptions);

  AnalysisResult R;
  for (int Iter = 0; Iter != Options.MaxIterations; ++Iter) {
    AbsRunStatus Status = Machine.runIteration(Pid, Entry);
    ++R.Iterations;
    if (Status == AbsRunStatus::Error)
      return makeError("abstract machine error: " + Machine.errorMessage());
    if (!Machine.changedSinceLastRun()) {
      R.Converged = true;
      break;
    }
  }

  fillRunCounters(R.Counters, Machine, Table);
  const CodeModule &M = *Program->Module;
  for (const ETEntry &E : Table.entries())
    R.Items.push_back(
        {E.PredId, M.predicateLabel(E.PredId), E.Call, E.Success});
  R.Dom = Dom;
  return R;
}

//===----------------------------------------------------------------------===//
// Incremental re-analysis: every form runs on the session's store.
//===----------------------------------------------------------------------===//

/// Edit signatures are user input (--edit flags, server edit verbs): one
/// naming a predicate the program never mentions — or an existing name at
/// the wrong arity — is a typo, and silently analyzing with an empty edit
/// set would just echo the old result. Returns the near-miss diagnostic,
/// or the empty string when every signature resolves. (The recompiled-
/// program overload reanalyze(CompiledProgram) stays lenient on purpose:
/// its diff legitimately names removed predicates.)
static std::string validateEditSigs(const CompiledProgram &Program,
                                    const std::vector<PredSig> &Edited) {
  const CodeModule &M = *Program.Module;
  for (const PredSig &Sig : Edited) {
    Symbol Sym = M.symbols().lookup(Sig.Name);
    if (Sym == ~0u || M.findPredicate(Sym, Sig.Arity) < 0)
      return undefinedPredicateMessage(M, "edited", Sig.Name, Sig.Arity);
  }
  return {};
}

Result<AnalysisResult>
AnalysisSession::reanalyze(const std::vector<PredSig> &EditedPreds) {
  if (std::string Err = validateEditSigs(*Program, EditedPreds); !Err.empty())
    return makeError(std::move(Err));
  if (!HaveEntry)
    return makeError("reanalyze requires a prior analyze()");
  Result<AnalysisStore *> S = ensureStore();
  if (!S)
    return S.diag();
  return (*S)->reanalyze(EditedPreds, LastEntryName, LastEntry);
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
  if (std::string Err = validateEditSigs(*Program, EditedPreds); !Err.empty())
    return makeError(std::move(Err));
  Result<std::pair<std::string, Pattern>> Parsed = parseEntrySpec(EntrySpec);
  if (!Parsed)
    return Parsed.diag();
  return (*S)->reanalyze(EditedPreds, Parsed->first, Parsed->second);
}

Result<AnalysisResult>
AnalysisSession::reanalyze(const CompiledProgram &Edited) {
  if (!HaveEntry)
    return makeError("reanalyze requires a prior analyze()");
  Result<AnalysisStore *> S = ensureStore();
  if (!S)
    return S.diag();
  Result<AnalysisResult> R = (*S)->reanalyze(Edited, LastEntryName, LastEntry);
  Program = &(*S)->program();
  return R;
}
