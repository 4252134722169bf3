//===- analyzer/Store.cpp - Persistent multi-root analysis store ----------===//

#include "analyzer/Store.h"

#include "analyzer/AbstractMachine.h"
#include "analyzer/Domain.h"

#include <algorithm>
#include <cassert>
#include <map>

using namespace awam;

AnalysisStore::AnalysisStore(const CompiledProgram &Program,
                             AnalyzerOptions Options)
    : Program(&Program), Options(Options) {
  // The store's reuse machinery — interned multi-root table, journal
  // replay, dependency cone — is defined in worklist-over-interner terms.
  // AnalysisSession refuses other configurations with a descriptive error;
  // normalize here so a directly constructed store is well-formed too.
  this->Options.Driver = DriverKind::Worklist;
  this->Options.UseInterning = true;
  Dom = findDomain(this->Options.DomainName);
  if (!Dom)
    Dom = &defaultDomain();
  resetState();
}

AnalysisStore::~AnalysisStore() = default;

void AnalysisStore::resetState() {
  Interner = std::make_unique<PatternInterner>(Options.DepthLimit, Dom);
  Table = std::make_unique<ExtensionTable>(Options.TableImpl,
                                           Interner.get());
  Core = SchedulerCore();
  EdgeSeen.clear();
  Roots.clear();
  Imported.reset();
  St.ImportedTraces = 0;
}

size_t AnalysisStore::numRoots() const {
  size_t N = 0;
  for (const RootInfo &RI : Roots)
    if (RI.Valid)
      ++N;
  return N;
}

int AnalysisStore::findRootSlot(std::string_view Name,
                                PatternId CallId) const {
  // Linear scan: CallId is a stable identity here because the interner is
  // append-only and shared by every query of this store.
  for (size_t I = 0; I != Roots.size(); ++I)
    if (Roots[I].CallId == CallId && Roots[I].Name == Name)
      return static_cast<int>(I);
  return -1;
}

const AnalysisResult *AnalysisStore::projection(std::string_view Name,
                                                const Pattern &Entry) {
  PatternId CallId = Interner->internNormalized(Entry);
  int Slot = findRootSlot(Name, CallId);
  return Slot >= 0 && Roots[Slot].Valid ? &Roots[Slot].Cached : nullptr;
}

Result<AnalysisResult> AnalysisStore::query(std::string_view EntrySpec) {
  Result<std::pair<std::string, Pattern>> Parsed = parseEntrySpec(EntrySpec);
  if (!Parsed)
    return Parsed.diag();
  return query(Parsed->first, Parsed->second);
}

Result<AnalysisResult> AnalysisStore::query(std::string_view Name,
                                            const Pattern &Entry) {
  const CodeModule &M = *Program->Module;
  Symbol Sym = M.symbols().lookup(Name);
  int Arity = static_cast<int>(Entry.Roots.size());
  int32_t Pid = Sym == ~0u ? -1 : M.findPredicate(Sym, Arity);
  if (Pid < 0)
    return makeError(undefinedPredicateMessage(M, "entry", Name, Arity));
  ++St.Queries;
  LastName.assign(Name);
  LastEntry = Entry;
  HaveLast = true;

  PatternId CallId = Interner->internNormalized(Entry);
  if (int Slot = findRootSlot(Name, CallId);
      Slot >= 0 && Roots[Slot].Valid) {
    ++St.CacheHits;
    return Roots[Slot].Cached;
  }

  // Build-aside drain: a fresh per-query table and machine, sharing only
  // the store's (append-only) interner. Nothing below writes store state
  // until the merge, so a failing query — machine error, budget hit —
  // leaves the store exactly as it was.
  ExtensionTable QTable(Options.TableImpl, Interner.get());
  AbsMachineOptions MachineOptions;
  MachineOptions.DepthLimit = Options.DepthLimit;
  MachineOptions.MaxSteps = Options.MaxSteps;
  MachineOptions.Dom = Dom;
  AbstractMachine Machine(*Program, QTable, MachineOptions);
  auto OutJournal = std::make_unique<RunJournal>(M);
  Machine.setRunJournal(OutJournal.get());
  // The shared interner's counters keep growing across queries; snapshot
  // so the result reports this query's own activity.
  InternerStats Before = Interner->stats();

  bool Created = false;
  ETEntry &Root = QTable.findOrCreate(Pid, CallId, Created);

  // Pool every valid root's banked journal as the replay source. The drain
  // validates each trace against the live query table before applying it,
  // so banked runs act as pre-verified memo hits wherever they still hold
  // and fall back to execution wherever they don't — which is what makes
  // the warm result byte-identical to a scratch run of this entry. Roots
  // share replayed traces by handle, so the pool dedupes by trace address
  // (and skips error traces, which never validate) — the second handle to
  // a trace could only re-validate what the first already applied.
  RunJournal PrevRuns(M);
  std::unordered_set<const RunTrace *> Pooled;
  for (const RootInfo &RI : Roots)
    if (RI.Valid && RI.Journal)
      for (const std::shared_ptr<const RunTrace> &T : RI.Journal->runs())
        if (!T->Error && Pooled.insert(T.get()).second)
          PrevRuns.append(T);
  // Imported bundle traces join the pool after the store's own: they are
  // just more pre-verified candidates for the drain to validate, so a
  // fresh store that imported a library's bundle runs its first query warm.
  if (Imported)
    for (const std::shared_ptr<const RunTrace> &T : Imported->runs())
      if (!T->Error && Pooled.insert(T.get()).second)
        PrevRuns.append(T);

  AnalysisResult R;
  WorklistScheduler::Status Status;
  const SchedulerCore *QCore = nullptr;
  std::unique_ptr<IncrementalScheduler> Inc;
  std::unique_ptr<WorklistScheduler> Seq;
  if (!PrevRuns.runs().empty()) {
    ++St.WarmQueries;
    Inc = std::make_unique<IncrementalScheduler>(
        QTable, Machine, M, PrevRuns, std::vector<PredSig>{},
        OutJournal.get(), Options.MaxSteps);
    Inc->reanalyzeStats().PrevEntries = Table->size();
    Status = Inc->run(Root, Options.MaxIterations);
    if (Status == WorklistScheduler::Status::Error)
      return makeError("abstract machine error: " + Machine.errorMessage());
    QCore = &Inc->core();
    const IncrementalScheduler::ReanalyzeStats &RS = Inc->reanalyzeStats();
    St.ReplayedRuns += RS.ReplayedRuns;
    St.ExecutedRuns += RS.ExecutedRuns;
    St.ReplayedActivations += RS.ReplayedActivations;
    St.ExecutedActivations += RS.ExecutedActivations;
  } else {
    ++St.ColdQueries;
    Seq = std::make_unique<WorklistScheduler>(QTable, Machine);
    Status = Seq->run(Root, Options.MaxIterations);
    if (Status == WorklistScheduler::Status::Error)
      return makeError("abstract machine error: " + Machine.errorMessage());
    QCore = &Seq->core();
  }

  const WorklistScheduler::Stats &SS = Inc ? Inc->stats() : Seq->stats();
  R.Converged = Status == WorklistScheduler::Status::Converged;
  R.Iterations = static_cast<int>(SS.Sweeps);
  R.Counters.SchedulerRuns = SS.Runs;
  R.Counters.DepEdges = SS.EdgesRecorded;
  R.Instructions = Machine.stepsExecuted();
  R.TableProbes = QTable.probeCount();
  R.Counters.Instructions = R.Instructions;
  R.Counters.ETProbes = R.TableProbes;
  R.Counters.ActivationRuns = Machine.activationsExplored();
  const InternerStats &After = Interner->stats();
  R.Counters.InternHits = After.InternHits - Before.InternHits;
  R.Counters.InternMisses = After.InternMisses - Before.InternMisses;
  R.Counters.LubCacheHits = After.LubCacheHits - Before.LubCacheHits;
  R.Counters.LubCacheMisses = After.LubCacheMisses - Before.LubCacheMisses;
  R.Counters.LeqCacheHits = After.LeqCacheHits - Before.LeqCacheHits;
  R.Counters.LeqCacheMisses = After.LeqCacheMisses - Before.LeqCacheMisses;
  R.Counters.DistinctPatterns = Interner->size();
  for (const ETEntry &E : QTable.entries())
    R.Items.push_back(
        {E.PredId, M.predicateLabel(E.PredId), E.Call, E.Success});
  R.Dom = Dom;

  // Only a converged fixpoint merges: a budget-hit table is a sound
  // partial answer for *this* query but not a reusable memo.
  if (R.Converged) {
    mergeQuery(Name, Pid, CallId, QTable, *QCore, std::move(OutJournal), R);
    // Bank hygiene: a warm drain re-banks every replayed trace as a shared
    // handle, so a long query chain accumulates one handle per (root,
    // trace) pair while the distinct traces stay near-constant. Compact
    // once the duplication factor crosses kCompactionFactor — past that
    // point most of the bank is re-validation of already-applied traces.
    constexpr size_t kCompactionMinHandles = 64;
    constexpr size_t kCompactionFactor = 2;
    size_t Handles = 0;
    std::unordered_set<const RunTrace *> Distinct;
    for (const RootInfo &RI : Roots)
      if (RI.Valid && RI.Journal)
        for (const std::shared_ptr<const RunTrace> &T : RI.Journal->runs()) {
          ++Handles;
          Distinct.insert(T.get());
        }
    if (Handles > kCompactionMinHandles &&
        Handles > kCompactionFactor * Distinct.size())
      compactJournals();
  }
  return R;
}

uint64_t AnalysisStore::bytesUsed() const {
  uint64_t B = Interner->bytesUsed() + Table->bytesUsed();
  std::unordered_set<const RunTrace *> Seen;
  for (const RootInfo &RI : Roots) {
    B += sizeof(RootInfo) + RI.Name.capacity() + patternHeapBytes(RI.Call) +
         RI.EntryIdxs.capacity() * sizeof(int32_t);
    B += RI.Cached.Items.capacity() * sizeof(AnalysisResult::Item);
    for (const AnalysisResult::Item &It : RI.Cached.Items)
      B += It.PredLabel.capacity() + patternHeapBytes(It.Call) +
           (It.Success ? patternHeapBytes(*It.Success) : 0);
    if (RI.Journal)
      B += RI.Journal->bytesUsed(Seen);
  }
  if (Imported)
    B += Imported->bytesUsed(Seen);
  return B;
}

uint64_t AnalysisStore::compactJournals() {
  const CodeModule &M = *Program->Module;
  uint64_t Dropped = 0;
  std::unordered_set<const RunTrace *> Kept;
  for (RootInfo &RI : Roots) {
    if (!RI.Valid || !RI.Journal)
      continue;
    auto NewJ = std::make_unique<RunJournal>(M);
    for (const std::shared_ptr<const RunTrace> &T : RI.Journal->runs()) {
      if (!T->Error && Kept.insert(T.get()).second)
        NewJ->append(T);
      else
        ++Dropped;
    }
    RI.Journal = std::move(NewJ);
  }
  ++St.Compactions;
  St.CompactedTraces += Dropped;
  return Dropped;
}

SummaryBundle AnalysisStore::exportBundle() const {
  const CodeModule &M = *Program->Module;
  SummaryBundle B;
  B.DomainName = std::string(Dom->name());
  B.DepthLimit = Options.DepthLimit;
  B.ModuleFingerprint = M.fingerprint();

  // Summary pairs: every table entry some valid root reached.
  for (const ETEntry &E : Table->entries()) {
    bool Live = false;
    for (int32_t R : E.Roots)
      if (Roots[static_cast<size_t>(R)].Valid) {
        Live = true;
        break;
      }
    if (!Live)
      continue;
    const PredicateInfo &P = M.predicate(E.PredId);
    SummaryBundle::Summary S;
    S.Sig = {std::string(M.symbols().name(P.Name)), P.Arity};
    S.Call = E.Call;
    S.Success = E.Success;
    B.Summaries.push_back(std::move(S));
  }

  // Traces: the same pooled dedup query() replays from (error traces
  // never validate, so they don't ship). Re-exporting a store that itself
  // imported includes the surviving foreign traces — bundles compose.
  std::unordered_set<const RunTrace *> Pooled;
  std::unordered_map<int32_t, PredSig> Sigs;
  auto Harvest = [&](const RunJournal &J) {
    for (const std::shared_ptr<const RunTrace> &T : J.runs())
      if (!T->Error && Pooled.insert(T.get()).second)
        B.Traces.push_back(T);
    for (const auto &[Pid, Sig] : J.sigs())
      Sigs.emplace(Pid, Sig);
  };
  for (const RootInfo &RI : Roots)
    if (RI.Valid && RI.Journal)
      Harvest(*RI.Journal);
  if (Imported)
    Harvest(*Imported);

  // Deterministic bytes: the sig table sorts by pid. Every referenced
  // predicate gets a clause-code fingerprint — including undefined ones,
  // whose "no clauses" hash only matches another module where the call
  // also fails, which is exactly the staleness check's job.
  std::vector<int32_t> Pids;
  Pids.reserve(Sigs.size());
  for (const auto &[Pid, Sig] : Sigs)
    Pids.push_back(Pid);
  std::sort(Pids.begin(), Pids.end());
  for (int32_t Pid : Pids) {
    B.TraceSigs.emplace_back(Pid, Sigs[Pid]);
    B.PredCodes.push_back({Sigs[Pid], M.predicateFingerprint(Pid)});
  }
  return B;
}

std::string AnalysisStore::exportSummaries() const {
  return exportBundle().serialize(Program->Module->symbols());
}

Result<AnalysisStore::ImportStats>
AnalysisStore::importBundle(const SummaryBundle &B) {
  const CodeModule &M = *Program->Module;
  if (B.DomainName != Dom->name())
    return makeError("summary bundle: domain mismatch (bundle '" +
                     B.DomainName + "', store '" +
                     std::string(Dom->name()) + "')");
  if (B.DepthLimit != Options.DepthLimit)
    return makeError("summary bundle: depth-limit mismatch (bundle " +
                     std::to_string(B.DepthLimit) + ", store " +
                     std::to_string(Options.DepthLimit) + ")");

  ImportStats IS;
  IS.BundleTraces = B.Traces.size();
  IS.Summaries = B.Summaries.size();

  // Resolve the bundle's pid space against this module and precompute the
  // staleness verdict per pid. A missing fingerprint entry counts as
  // stale — the guard must be positive evidence of unchanged code.
  int32_t MaxPid = -1;
  for (const auto &[Pid, Sig] : B.TraceSigs)
    MaxPid = std::max(MaxPid, Pid);
  std::vector<int32_t> PidMap(static_cast<size_t>(MaxPid + 1), -1);
  std::vector<char> Stale(static_cast<size_t>(MaxPid + 1), 1);
  std::map<std::pair<std::string, int32_t>, uint64_t> Fps;
  for (const SummaryBundle::PredCode &PC : B.PredCodes)
    Fps[{PC.Sig.Name, PC.Sig.Arity}] = PC.CodeFp;
  for (const auto &[Pid, Sig] : B.TraceSigs) {
    Symbol Sym = M.symbols().lookup(Sig.Name);
    int32_t NewPid = Sym == ~0u ? -1 : M.findPredicate(Sym, Sig.Arity);
    PidMap[static_cast<size_t>(Pid)] = NewPid;
    if (NewPid < 0)
      continue;
    auto It = Fps.find({Sig.Name, Sig.Arity});
    Stale[static_cast<size_t>(Pid)] =
        It == Fps.end() || It->second != M.predicateFingerprint(NewPid);
  }

  if (!Imported)
    Imported = std::make_unique<RunJournal>(M);
  for (const std::shared_ptr<const RunTrace> &T : B.Traces) {
    if (!T || T->Error)
      continue;
    bool Unresolved = false, IsStale = false;
    auto Check = [&](int32_t Pid) {
      if (static_cast<size_t>(Pid) >= PidMap.size() ||
          PidMap[static_cast<size_t>(Pid)] < 0)
        Unresolved = true;
      else if (Stale[static_cast<size_t>(Pid)])
        IsStale = true;
    };
    Check(T->Pred);
    for (const TraceOp &Op : T->Ops)
      if (Op.Pred >= 0)
        Check(Op.Pred);
    if (Unresolved)
      ++IS.DroppedUnresolved;
    else if (IsStale)
      ++IS.DroppedStale;
    else {
      Imported->appendRemapped(T, PidMap);
      ++IS.Banked;
    }
  }
  if (IS.Banked) {
    ++St.BundlesImported;
    St.ImportedTraces += IS.Banked;
  }
  return IS;
}

Result<AnalysisStore::ImportStats>
AnalysisStore::importSummaries(std::string_view Bytes) {
  Result<SummaryBundle> B =
      SummaryBundle::deserialize(Bytes, Program->Module->symbols());
  if (!B)
    return B.diag();
  return importBundle(*B);
}

void AnalysisStore::mergeQuery(std::string_view Name, int32_t Pid,
                               PatternId CallId,
                               const ExtensionTable &QTable,
                               const SchedulerCore &QCore,
                               std::unique_ptr<RunJournal> Journal,
                               const AnalysisResult &R) {
  int Slot = findRootSlot(Name, CallId);
  if (Slot < 0) {
    Slot = static_cast<int>(Roots.size());
    Roots.emplace_back();
  }
  RootInfo &RI = Roots[Slot];
  RI.Name.assign(Name);
  RI.Call = Pattern(Interner->pattern(CallId));
  RI.Arity = static_cast<int32_t>(RI.Call.Roots.size());
  RI.Pid = Pid;
  RI.CallId = CallId;
  RI.EntryIdxs.clear();

  // Install the query table into the store table, tagging each entry with
  // this root's ordinal. A key two queries share has one summary: both are
  // the least fixpoint at (pred, calling pattern), which depends on the
  // program alone — not on which entry goal reached it.
  std::vector<int32_t> IdxMap;
  IdxMap.reserve(QTable.size());
  for (const ETEntry &E : QTable.entries()) {
    bool Created = false;
    ETEntry &SE = Table->findOrCreate(E.PredId, E.CallId, Created);
    if (Created) {
      SE.Success = E.Success;
      SE.SuccessId = E.SuccessId;
      SE.EverExplored = E.EverExplored;
      SE.SuccessVersion = E.SuccessVersion;
      ++St.NewEntries;
    } else {
      assert(SE.Success == E.Success &&
             "converged summaries of a shared key must agree");
      ++St.SharedEntries;
    }
    if (std::find(SE.Roots.begin(), SE.Roots.end(),
                  static_cast<int32_t>(Slot)) == SE.Roots.end())
      SE.Roots.push_back(static_cast<int32_t>(Slot));
    IdxMap.push_back(SE.Idx);
    RI.EntryIdxs.push_back(SE.Idx);
  }

  // Accumulate the drain's dependency edges (remapped to store indices) —
  // reverseClosure over the union graph is the invalidation cone.
  Core.ensure(static_cast<int32_t>(Table->size()));
  for (const auto &[Dep, Reader] : QCore.edgePairs()) {
    int32_t SD = IdxMap[static_cast<size_t>(Dep)];
    int32_t SR = IdxMap[static_cast<size_t>(Reader)];
    uint64_t Key =
        (static_cast<uint64_t>(static_cast<uint32_t>(SD)) << 32) |
        static_cast<uint32_t>(SR);
    if (EdgeSeen.insert(Key).second)
      Core.noteRead(SR, SD, 0);
  }

  RI.Journal = std::move(Journal);
  RI.Cached = R;
  RI.Valid = true;
  ++St.MergedRoots;
}

Result<AnalysisResult>
AnalysisStore::reanalyze(const std::vector<PredSig> &EditedPreds) {
  if (!HaveLast)
    return makeError("reanalyze requires a prior analyze()");
  invalidate(*Program, EditedPreds);
  return query(LastName, LastEntry);
}

Result<AnalysisResult>
AnalysisStore::reanalyze(const std::vector<PredSig> &EditedPreds,
                         std::string_view Name, const Pattern &Entry) {
  invalidate(*Program, EditedPreds);
  return query(Name, Entry);
}

Result<AnalysisResult>
AnalysisStore::reanalyze(const CompiledProgram &Edited) {
  if (!HaveLast)
    return makeError("reanalyze requires a prior analyze()");
  // Diffed against the outgoing program, before the edited one installs.
  std::vector<PredSig> Edits = diffPrograms(*Program, Edited);
  invalidate(Edited, Edits);
  return query(LastName, LastEntry);
}

void AnalysisStore::invalidate(const CompiledProgram &NewP,
                               const std::vector<PredSig> &Edited) {
  ++St.Reanalyses;
  const CodeModule &MOld = *Program->Module;
  const CodeModule &MNew = *NewP.Module;

  // Distinct symbol tables: patterns of the two modules are incomparable
  // (they embed Symbols), and the interner's stored patterns could
  // structurally alias unrelated new-module terms. Nothing survives.
  if (&MOld.symbols() != &MNew.symbols()) {
    St.InvalidatedRoots += numRoots();
    St.InvalidatedEntries += Table->size();
    St.LastConeEntries = Table->size();
    resetState();
    Program = &NewP;
    return;
  }

  // The cone: reverse closure of the edited predicates' entries over the
  // accumulated dependency graph.
  std::vector<char> IsEdited(static_cast<size_t>(MOld.numPredicates()), 0);
  for (const PredSig &Sig : Edited) {
    Symbol Sym = MOld.symbols().lookup(Sig.Name);
    int32_t Pid = Sym == ~0u ? -1 : MOld.findPredicate(Sym, Sig.Arity);
    if (Pid >= 0)
      IsEdited[Pid] = 1;
  }
  std::vector<int32_t> Seeds;
  for (const ETEntry &E : Table->entries())
    if (static_cast<size_t>(E.PredId) < IsEdited.size() &&
        IsEdited[E.PredId])
      Seeds.push_back(E.Idx);
  std::vector<char> Mark = Core.reverseClosure(Seeds);
  Mark.resize(Table->size(), 0);
  St.LastConeEntries = static_cast<uint64_t>(
      std::count(Mark.begin(), Mark.end(), char(1)));

  // Ids may shift on recompilation (first-reference order); re-resolve by
  // name/arity, which the shared symbol table makes directly comparable.
  auto MapOldPid = [&](int32_t Old) {
    const PredicateInfo &P = MOld.predicate(Old);
    return MNew.findPredicate(P.Name, P.Arity);
  };

  // A root survives iff its projection misses the cone entirely (an edit
  // it could have observed implies an edge into the cone: a memo read of
  // a changed summary records an edge, and entering edited code marks the
  // entry itself) and everything it references still resolves.
  for (RootInfo &RI : Roots) {
    if (!RI.Valid)
      continue;
    bool Dead = MapOldPid(RI.Pid) < 0;
    for (int32_t Idx : RI.EntryIdxs) {
      if (Mark[static_cast<size_t>(Idx)] ||
          MapOldPid(Table->entryAt(static_cast<size_t>(Idx)).PredId) < 0) {
        Dead = true;
        break;
      }
    }
    if (Dead) {
      RI.Valid = false;
      RI.Cached = AnalysisResult{};
      RI.EntryIdxs.clear();
      RI.Journal.reset();
      ++St.InvalidatedRoots;
    }
  }

  // Rebuild the physical table and graph from the survivors. The table's
  // lookup index embeds PredId, so shifted ids force re-insertion anyway;
  // rebuilding also drops every dead entry and edge in one pass.
  uint64_t OldEntries = Table->size();
  auto NewTable =
      std::make_unique<ExtensionTable>(Options.TableImpl, Interner.get());
  SchedulerCore NewCore;
  std::unordered_set<uint64_t> NewEdgeSeen;
  std::vector<int32_t> OldToNew(Table->size(), -1);
  for (size_t RIdx = 0; RIdx != Roots.size(); ++RIdx) {
    RootInfo &RI = Roots[RIdx];
    if (!RI.Valid)
      continue;
    RI.Pid = MapOldPid(RI.Pid);
    for (int32_t &Idx : RI.EntryIdxs) {
      ETEntry &Old = Table->entryAt(static_cast<size_t>(Idx));
      int32_t NewPid = MapOldPid(Old.PredId);
      assert(NewPid >= 0 && "survivors resolve by construction");
      bool Created = false;
      ETEntry &NE = NewTable->findOrCreate(NewPid, Old.CallId, Created);
      if (Created) {
        NE.Success = Old.Success;
        NE.SuccessId = Old.SuccessId;
        NE.EverExplored = Old.EverExplored;
        NE.SuccessVersion = Old.SuccessVersion;
      }
      if (std::find(NE.Roots.begin(), NE.Roots.end(),
                    static_cast<int32_t>(RIdx)) == NE.Roots.end())
        NE.Roots.push_back(static_cast<int32_t>(RIdx));
      OldToNew[static_cast<size_t>(Idx)] = NE.Idx;
      Idx = NE.Idx;
    }
    // The cached projection's items carry PredIds for reachability joins.
    for (AnalysisResult::Item &It : RI.Cached.Items)
      It.PredId = MapOldPid(It.PredId);
    // Re-key the banked journal to the new module's ids. A surviving
    // root's drain never touched an edited predicate (it would be in the
    // cone), and removed predicates are reported as edited by
    // diffPrograms; unresolvable traces can only appear under a manual
    // edit list that understates the edit, and dropping them is safe —
    // replay validation, not the bank, is what guarantees correctness.
    if (RI.Journal) {
      auto NewJ = std::make_unique<RunJournal>(MNew);
      int32_t MaxPid = -1;
      for (const auto &[Pid, Sig] : RI.Journal->sigs())
        MaxPid = std::max(MaxPid, Pid);
      std::vector<int32_t> PidMap(static_cast<size_t>(MaxPid + 1), -1);
      for (const auto &[Pid, Sig] : RI.Journal->sigs()) {
        Symbol Sym = MNew.symbols().lookup(Sig.Name);
        PidMap[static_cast<size_t>(Pid)] =
            Sym == ~0u ? -1 : MNew.findPredicate(Sym, Sig.Arity);
      }
      for (const std::shared_ptr<const RunTrace> &T : RI.Journal->runs()) {
        bool Resolves = static_cast<size_t>(T->Pred) < PidMap.size() &&
                        PidMap[static_cast<size_t>(T->Pred)] >= 0;
        for (const TraceOp &Op : T->Ops)
          if (Resolves && Op.Pred >= 0)
            Resolves = static_cast<size_t>(Op.Pred) < PidMap.size() &&
                       PidMap[static_cast<size_t>(Op.Pred)] >= 0;
        if (Resolves)
          NewJ->appendRemapped(T, PidMap);
      }
      RI.Journal = std::move(NewJ);
    }
  }
  NewCore.ensure(static_cast<int32_t>(NewTable->size()));
  for (const auto &[Dep, Reader] : Core.edgePairs()) {
    if (static_cast<size_t>(Dep) >= OldToNew.size() ||
        static_cast<size_t>(Reader) >= OldToNew.size())
      continue;
    int32_t ND = OldToNew[static_cast<size_t>(Dep)];
    int32_t NR = OldToNew[static_cast<size_t>(Reader)];
    if (ND < 0 || NR < 0)
      continue;
    uint64_t Key =
        (static_cast<uint64_t>(static_cast<uint32_t>(ND)) << 32) |
        static_cast<uint32_t>(NR);
    if (NewEdgeSeen.insert(Key).second)
      NewCore.noteRead(NR, ND, 0);
  }

  // The imported bank is not covered by the cone argument (its traces
  // belong to no root), so filter it directly: drop every trace that
  // touches an edited predicate or no longer resolves, remap the rest.
  if (Imported) {
    auto NewJ = std::make_unique<RunJournal>(MNew);
    int32_t MaxPid = -1;
    for (const auto &[Pid, Sig] : Imported->sigs())
      MaxPid = std::max(MaxPid, Pid);
    std::vector<int32_t> PidMap(static_cast<size_t>(MaxPid + 1), -1);
    for (const auto &[Pid, Sig] : Imported->sigs()) {
      Symbol Sym = MNew.symbols().lookup(Sig.Name);
      PidMap[static_cast<size_t>(Pid)] =
          Sym == ~0u ? -1 : MNew.findPredicate(Sym, Sig.Arity);
    }
    auto Live = [&](int32_t Pid) {
      return static_cast<size_t>(Pid) < PidMap.size() &&
             PidMap[static_cast<size_t>(Pid)] >= 0 &&
             !(static_cast<size_t>(Pid) < IsEdited.size() &&
               IsEdited[static_cast<size_t>(Pid)]);
    };
    uint64_t Survivors = 0;
    for (const std::shared_ptr<const RunTrace> &T : Imported->runs()) {
      bool Ok = Live(T->Pred);
      for (const TraceOp &Op : T->Ops)
        if (Ok && Op.Pred >= 0)
          Ok = Live(Op.Pred);
      if (Ok) {
        NewJ->appendRemapped(T, PidMap);
        ++Survivors;
      }
    }
    Imported = Survivors ? std::move(NewJ) : nullptr;
    St.ImportedTraces = Survivors;
  }

  St.InvalidatedEntries += OldEntries - NewTable->size();
  Table = std::move(NewTable);
  Core = std::move(NewCore);
  EdgeSeen = std::move(NewEdgeSeen);
  Program = &NewP;
}

std::string AnalysisStore::canonicalDump(const SymbolTable &Syms) const {
  // Tag roots by identity (name + calling pattern), never by ordinal:
  // ordinals depend on query order, identities don't.
  std::vector<std::string> RootTag(Roots.size());
  for (size_t I = 0; I != Roots.size(); ++I)
    RootTag[I] = Roots[I].Name + Roots[I].Call.str(Syms);
  const CodeModule &M = *Program->Module;
  std::vector<std::string> Lines;
  for (const ETEntry &E : Table->entries()) {
    std::vector<std::string> Tags;
    for (int32_t R : E.Roots)
      if (Roots[static_cast<size_t>(R)].Valid)
        Tags.push_back(RootTag[static_cast<size_t>(R)]);
    if (Tags.empty())
      continue;
    std::sort(Tags.begin(), Tags.end());
    std::string Line = M.predicateLabel(E.PredId) + " " + E.Call.str(Syms) +
                       " -> " +
                       (E.Success ? E.Success->str(Syms) : "(fails)") +
                       "  roots:";
    for (const std::string &T : Tags)
      Line += " " + T;
    Lines.push_back(std::move(Line));
  }
  std::sort(Lines.begin(), Lines.end());
  std::string Out;
  for (const std::string &L : Lines) {
    Out += L;
    Out += '\n';
  }
  return Out;
}

std::string awam::formatAnalysis(AnalysisStore &Store, std::string_view Name,
                                 const Pattern &Entry,
                                 const SymbolTable &Syms) {
  const AnalysisResult *R = Store.projection(Name, Entry);
  return R ? formatAnalysis(*R, Syms) : std::string();
}
