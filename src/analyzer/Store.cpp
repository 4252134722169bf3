//===- analyzer/Store.cpp - Persistent multi-root analysis store ----------===//

#include "analyzer/Store.h"

#include "analyzer/AbstractMachine.h"
#include "analyzer/Domain.h"
#include "analyzer/Scheduler.h"

#include <algorithm>
#include <cassert>
#include <numeric>

using namespace awam;

namespace {

/// \p Op with its predicate id mapped through \p MapPid and its pattern
/// ids through \p MapPat (both total on the ids \p Op uses; an Exit's
/// step count is no id).
template <typename MapPidFn, typename MapPatFn>
TraceOp remapOp(TraceOp Op, MapPidFn MapPid, MapPatFn MapPat) {
  if (Op.Pred >= 0) {
    Op.Pred = MapPid(Op.Pred);
    assert(Op.Pred >= 0 && "re-keyed trace ids must resolve");
  }
  if (Op.namesPatterns()) {
    Op.Call = MapPat(Op.Call);
    Op.Summary = MapPat(Op.Summary);
  }
  return Op;
}

/// \p T with its predicate ids mapped through \p MapPid and its pattern
/// ids through \p MapPat (see remapOp). Shares \p T when both maps are
/// the identity on it, and copies it otherwise.
template <typename MapPidFn, typename MapPatFn>
std::shared_ptr<const RunTrace>
remapTrace(const std::shared_ptr<const RunTrace> &T, MapPidFn MapPid,
           MapPatFn MapPat) {
  auto Same = [](const TraceOp &A, const TraceOp &B) {
    return A.Pred == B.Pred && A.Call == B.Call && A.Summary == B.Summary;
  };
  bool Identity = MapPid(T->Pred) == T->Pred && MapPat(T->Call) == T->Call &&
                  MapPat(T->PreSuccess) == T->PreSuccess;
  for (const TraceOp &Op : T->Ops)
    Identity = Identity && Same(remapOp(Op, MapPid, MapPat), Op);
  if (Identity)
    return T;
  auto Copy = std::make_shared<RunTrace>(*T);
  Copy->Pred = MapPid(Copy->Pred);
  assert(Copy->Pred >= 0 && "re-keyed trace ids must resolve");
  Copy->Call = MapPat(Copy->Call);
  Copy->PreSuccess = MapPat(Copy->PreSuccess);
  for (TraceOp &Op : Copy->Ops)
    Op = remapOp(Op, MapPid, MapPat);
  return Copy;
}

} // namespace

AnalysisStore::AnalysisStore(const CompiledProgram &Program,
                             AnalyzerOptions Options)
    : Program(&Program), Options(Options) {
  // The store's reuse machinery — interned multi-root table, journal
  // replay — is defined in worklist-over-interner terms.
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
  Interner = std::make_shared<PatternInterner>(Options.DepthLimit, Dom);
  Table = std::make_unique<ExtensionTable>(Options.TableImpl,
                                           Interner.get());
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

AnalysisResult AnalysisStore::answer(const RootInfo &RI) const {
  const CodeModule &M = *Program->Module;
  AnalysisResult R = RI.Answer;
  R.Items.reserve(RI.EntryIdxs.size());
  for (int32_t Idx : RI.EntryIdxs) {
    const ETEntry &E = Table->entryAt(static_cast<size_t>(Idx));
    R.Items.push_back(
        {E.PredId, M.predicateLabel(E.PredId), E.Call, E.Success});
  }
  return R;
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

  // The shared interner's counters keep growing across queries; snapshot
  // so the result reports this query's own activity, the entry's
  // interning included.
  InternerStats Before = Interner->stats();
  PatternId CallId = Interner->internNormalized(Entry);
  if (int Slot = findRootSlot(Name, CallId);
      Slot >= 0 && Roots[Slot].Valid) {
    ++St.CacheHits;
    return answer(Roots[Slot]);
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
  auto OutJournal = std::make_unique<RunJournal>();
  Machine.setRunJournal(OutJournal.get());

  bool Created = false;
  ETEntry &Root = QTable.findOrCreate(Pid, CallId, Created);

  // Replay from the store's pool (see pool()). The drain validates each
  // trace against the live query table before applying it, so banked runs
  // act as pre-verified memo hits wherever they still hold and fall back
  // to execution wherever they don't — which is what makes the warm
  // result byte-identical to a cold run of this entry.
  TraceBank Bank = pool();
  const bool Warm = !Bank.empty();
  ++(Warm ? St.WarmQueries : St.ColdQueries);
  WorklistScheduler Sched(QTable, Machine, Warm ? &Bank : nullptr);
  WorklistScheduler::Status Status = Sched.run(Root, Options.MaxIterations);
  if (Status == WorklistScheduler::Status::Error)
    return makeError("abstract machine error: " + Machine.errorMessage());
  const WorklistScheduler::Stats &SS = Sched.stats();
  if (Warm) {
    St.ReplayedRuns += SS.ReplayedRuns;
    St.ExecutedRuns += SS.Runs - SS.ReplayedRuns;
    St.ReplayedActivations += SS.ReplayedActivations;
    St.ExecutedActivations +=
        Machine.activationsExplored() - SS.ReplayedActivations;
  }

  AnalysisResult R;
  R.Converged = Status == WorklistScheduler::Status::Converged;
  R.Iterations = static_cast<int>(SS.Sweeps);
  R.Counters.SchedulerRuns = SS.Runs;
  R.Counters.DepEdges = SS.EdgesRecorded;
  fillRunCounters(R.Counters, Machine, QTable, Before);
  R.Dom = Dom;

  // Only a converged fixpoint merges: a budget-hit table is a sound
  // partial answer for *this* query but not a reusable memo.
  if (R.Converged) {
    OutJournal->finishRecording();
    int Slot = mergeQuery(Name, Pid, CallId, QTable, std::move(OutJournal),
                          std::move(R));
    // Bank hygiene: a warm drain re-banks every replayed trace as a shared
    // handle, so a long query chain accumulates one handle per (root,
    // trace) pair while the distinct traces stay near-constant. Compact
    // once the duplication factor crosses kCompactionFactor — past that
    // point most of the bank is re-validation of already-applied traces.
    // No bank holds a handle twice (a drain consumes each pooled trace at
    // most once; import, keepUnedited and compactJournals add each trace
    // once), so B banks hold at most B handles per distinct trace and the
    // factor can be crossed only with more than kCompactionFactor banks.
    constexpr size_t kCompactionMinHandles = 64;
    constexpr size_t kCompactionFactor = 2;
    size_t Banks = Imported ? 1 : 0;
    for (const RootInfo &RI : Roots)
      Banks += RI.Journal != nullptr;
    if (Banks > kCompactionFactor) {
      size_t Handles = 0;
      size_t Distinct = pool(&Handles).size();
      if (Handles > kCompactionMinHandles &&
          Handles > kCompactionFactor * Distinct)
        compactJournals();
    }
    // The store table holds the query's entries now: a shared key's
    // summary is the query's, both being the least fixpoint there.
    return answer(Roots[static_cast<size_t>(Slot)]);
  }
  for (const ETEntry &E : QTable.entries())
    R.Items.push_back(
        {E.PredId, M.predicateLabel(E.PredId), E.Call, E.Success});
  return R;
}

bool AnalysisStore::projectionsCoverTable() const {
  std::vector<char> Covered(Table->size(), 0);
  for (const RootInfo &RI : Roots)
    if (RI.Valid)
      for (int32_t Idx : RI.EntryIdxs)
        Covered[static_cast<size_t>(Idx)] = 1;
  return std::find(Covered.begin(), Covered.end(), 0) == Covered.end();
}

TraceBank AnalysisStore::pool(size_t *Handles) const {
  // Roots share replayed traces by handle, so the pool dedupes by trace
  // address — a second handle could only re-validate what the first already
  // applied — and skips error traces, which never validate. Imported traces
  // come last: they are just more candidates for the drain to validate, so
  // a fresh store that imported a library's bundle runs its first query
  // warm.
  TraceBank Out;
  detail::FlatMap64 Seen;
  auto Add = [&](const std::unique_ptr<RunJournal> &J) {
    if (!J)
      return;
    for (const std::shared_ptr<const RunTrace> &T : J->runs()) {
      if (Handles)
        ++*Handles;
      if (!T->Error && firstSighting(Seen, T.get()))
        Out.push_back(T);
    }
  };
  for (const RootInfo &RI : Roots)
    Add(RI.Journal);
  Add(Imported);
  return Out;
}

uint64_t AnalysisStore::bytesUsed() const {
  uint64_t B = Interner->bytesUsed() + Table->bytesUsed();
  detail::FlatMap64 Seen;
  for (const RootInfo &RI : Roots) {
    B += sizeof(RootInfo) + RI.Name.capacity() +
         RI.EntryIdxs.capacity() * sizeof(int32_t);
    if (RI.Journal)
      B += RI.Journal->bytesUsed(Seen);
  }
  if (Imported)
    B += Imported->bytesUsed(Seen);
  return B;
}

uint64_t AnalysisStore::compactJournals() {
  uint64_t Dropped = 0;
  detail::FlatMap64 Kept;
  auto Compact = [&](std::unique_ptr<RunJournal> &J) {
    if (!J)
      return;
    auto NewJ = std::make_unique<RunJournal>();
    for (const std::shared_ptr<const RunTrace> &T : J->runs()) {
      if (!T->Error && firstSighting(Kept, T.get()))
        NewJ->append(T);
      else
        ++Dropped;
    }
    J = std::move(NewJ);
  };
  for (RootInfo &RI : Roots)
    Compact(RI.Journal);
  Compact(Imported);
  St.ImportedTraces = Imported ? Imported->runs().size() : 0;
  ++St.Compactions;
  St.CompactedTraces += Dropped;
  return Dropped;
}

SummaryBundle AnalysisStore::exportBundle() const {
  const CodeModule &M = *Program->Module;
  SummaryBundle B;
  B.DomainName = std::string(Dom->name());
  B.DepthLimit = Options.DepthLimit;
  // Every trace id is the store interner's; the bundle shares it, so
  // serialize writes each pattern straight from the interner's arena.
  B.Patterns = Interner;

  // Traces: the pool query() replays from. Re-exporting a store that
  // itself imported includes the surviving foreign traces — bundles
  // compose.
  B.Traces = pool();

  // Deterministic bytes: the predicate table sorts by pid. Every
  // referenced predicate gets a clause-code fingerprint — including
  // undefined ones, whose "no clauses" hash only matches another module
  // where the call also fails, which is exactly the staleness check's job.
  std::vector<char> Referenced(static_cast<size_t>(M.numPredicates()), 0);
  for (const std::shared_ptr<const RunTrace> &T : B.Traces) {
    Referenced[static_cast<size_t>(T->Pred)] = 1;
    for (const TraceOp &Op : T->Ops)
      if (Op.Pred >= 0)
        Referenced[static_cast<size_t>(Op.Pred)] = 1;
  }
  for (int32_t Pid = 0; Pid != M.numPredicates(); ++Pid) {
    if (!Referenced[static_cast<size_t>(Pid)])
      continue;
    const PredicateInfo &P = M.predicate(Pid);
    B.Preds.push_back({Pid,
                       {std::string(M.symbols().name(P.Name)), P.Arity},
                       M.predicateFingerprint(Pid)});
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

  // Resolve the bundle's predicate table against this module: each row's
  // pid here (-1 when undefined) and whether its clause code hashes
  // differently (stale). The bundle's ids are whatever its bytes say, so
  // they only key a hash index into the table and size nothing.
  detail::FlatMap64 PredIndex; // bundle pid -> Preds position
  std::vector<int32_t> NewPids;
  std::vector<char> Stale;
  for (const SummaryBundle::Pred &P : B.Preds) {
    Symbol Sym = M.symbols().lookup(P.Sig.Name);
    int32_t NewPid = Sym == ~0u ? -1 : M.findPredicate(Sym, P.Sig.Arity);
    PredIndex.insert(static_cast<uint32_t>(P.Pid),
                     static_cast<uint32_t>(NewPids.size()));
    NewPids.push_back(NewPid);
    Stale.push_back(NewPid >= 0 &&
                    P.CodeHash != M.predicateFingerprint(NewPid));
  }
  auto RowOf = [&](int32_t Pid) {
    return PredIndex.lookup(static_cast<uint32_t>(Pid));
  };

  // Bundle pattern ids -> this store's interner: each distinct pattern a
  // banked trace uses is interned once, on first use.
  std::vector<PatternId> PatMap(B.Patterns ? B.Patterns->size() : 0,
                                kInvalidPatternId);
  auto MapPat = [&](PatternId Id) {
    if (Id == kInvalidPatternId)
      return Id;
    assert(Id < PatMap.size() && "bundle ids index the bundle's Patterns");
    PatternId &To = PatMap[Id];
    if (To == kInvalidPatternId)
      To = Interner->intern(B.Patterns->pattern(Id));
    return To;
  };

  if (!Imported)
    Imported = std::make_unique<RunJournal>();
  for (const std::shared_ptr<const RunTrace> &T : B.Traces) {
    if (!T || T->Error)
      continue;
    bool Unresolved = false, IsStale = false;
    auto Check = [&](int32_t Pid) {
      uint32_t I = RowOf(Pid);
      if (I == detail::FlatMap64::kEmpty || NewPids[I] < 0)
        Unresolved = true;
      else if (Stale[I])
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
      Imported->append(remapTrace(
          T, [&](int32_t Pid) { return NewPids[RowOf(Pid)]; }, MapPat));
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

int AnalysisStore::mergeQuery(std::string_view Name, int32_t Pid,
                              PatternId CallId, ExtensionTable &QTable,
                              std::unique_ptr<RunJournal> Journal,
                              AnalysisResult R) {
  int Slot = findRootSlot(Name, CallId);
  if (Slot < 0) {
    Slot = static_cast<int>(Roots.size());
    Roots.emplace_back();
  }
  RootInfo &RI = Roots[Slot];
  RI.Name.assign(Name);
  RI.Pid = Pid;
  RI.CallId = CallId;
  RI.EntryIdxs.clear();

  if (Table->size() == 0) {
    // First merge into an empty store: the query table becomes the
    // store's as it is, Idx for Idx — the entries the general path below
    // would install, without re-hashing their keys, which would add much
    // of what a cold query costs beyond its drain (measured in DESIGN.md
    // §12).
    *Table = std::move(QTable);
    RI.EntryIdxs.resize(Table->size());
    std::iota(RI.EntryIdxs.begin(), RI.EntryIdxs.end(), 0);
    St.NewEntries += Table->size();
  } else {
    // Install the query table into the store table. A key two queries
    // share has one summary: both are the least fixpoint at (pred, calling
    // pattern), which depends on the program alone — not on which entry
    // goal reached it.
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
        assert(SE.SuccessId == E.SuccessId &&
               "converged summaries of a shared key must agree");
        ++St.SharedEntries;
      }
      RI.EntryIdxs.push_back(SE.Idx);
    }
  }

  RI.Journal = std::move(Journal);
  RI.Answer = std::move(R);
  RI.Valid = true;
  assert(projectionsCoverTable());
  return Slot;
}

Result<AnalysisResult>
AnalysisStore::reanalyze(const std::vector<PredSig> &EditedPreds,
                         std::string_view Name, const Pattern &Entry) {
  invalidate(*Program, EditedPreds);
  return query(Name, Entry);
}

Result<AnalysisResult>
AnalysisStore::reanalyze(const CompiledProgram &Edited, std::string_view Name,
                         const Pattern &Entry) {
  // Diffed against the outgoing program, before the edited one installs.
  std::vector<PredSig> Edits = diffPrograms(*Program, Edited);
  invalidate(Edited, Edits);
  return query(Name, Entry);
}

namespace {

/// What \p J keeps after an edit, re-keyed to the new module's ids
/// through \p PidMap (old pid -> new pid, or -1 when it no longer
/// resolves). A frame is *clean* when every predicate it names still
/// resolves and it runs no edited clause code (\p IsEdited, by old pid),
/// neither as its root nor by Enter-ing an edited predicate. A trace whose
/// root frame is clean stays whole; of any other, the maximal clean frames
/// stay, as frame traces (analyzer/RunJournal.h) in op order. Memo reads
/// of edited predicates stay: replay validates the summary value they
/// observed. Returns nullptr when nothing survives.
std::unique_ptr<RunJournal> keepUnedited(const RunJournal &J,
                                         const std::vector<int32_t> &PidMap,
                                         const std::vector<char> &IsEdited) {
  auto MapPid = [&](int32_t Pid) { return PidMap[static_cast<size_t>(Pid)]; };
  auto SamePat = [](PatternId Id) { return Id; };
  auto NewJ = std::make_unique<RunJournal>();
  std::vector<uint32_t> Open;   // Enter positions of the open frames
  std::vector<uint32_t> ExitOf; // Enter position -> its Exit's position
  std::vector<char> Dirty;      // Enter position -> its frame is not clean
  for (const std::shared_ptr<const RunTrace> &T : J.runs()) {
    if (T->Error)
      continue;
    // One pass pairs every Enter with its Exit and marks each frame that
    // names a lost predicate or enters edited code, and every frame
    // around it. The root frame is the one with no Enter. Both arrays
    // are read at Enter positions only, each written when its Enter is.
    const std::vector<TraceOp> &Ops = T->Ops;
    ExitOf.resize(Ops.size());
    Dirty.resize(Ops.size());
    Open.clear();
    bool RootDirty =
        MapPid(T->Pred) < 0 || IsEdited[static_cast<size_t>(T->Pred)];
    auto MarkOpen = [&] {
      if (Open.empty())
        RootDirty = true;
      else
        Dirty[Open.back()] = 1;
    };
    for (uint32_t I = 0; I != Ops.size(); ++I) {
      const TraceOp &Op = Ops[I];
      if (Op.K == TraceOp::Exit) {
        if (Open.empty())
          break; // the root's Exit, the trace's last op
        uint32_t Enter = Open.back();
        Open.pop_back();
        ExitOf[Enter] = I;
        if (Dirty[Enter])
          MarkOpen();
      } else if (Op.K == TraceOp::Enter) {
        Open.push_back(I);
        Dirty[I] =
            MapPid(Op.Pred) < 0 || IsEdited[static_cast<size_t>(Op.Pred)];
      } else if (Op.Pred >= 0 && MapPid(Op.Pred) < 0) {
        MarkOpen();
      }
    }
    if (!RootDirty) {
      NewJ->append(remapTrace(T, MapPid, SamePat));
      continue;
    }
    for (uint32_t I = 0; I != Ops.size(); ++I) {
      const TraceOp &Op = Ops[I];
      if (Op.K != TraceOp::Enter || Dirty[I])
        continue;
      auto F = std::make_shared<RunTrace>();
      F->Pred = MapPid(Op.Pred);
      F->Call = Op.Call;
      F->PreSuccess = Op.Summary;
      F->Ops.reserve(ExitOf[I] - I);
      for (uint32_t K = I + 1; K <= ExitOf[I]; ++K)
        F->Ops.push_back(remapOp(Ops[K], MapPid, SamePat));
      F->Steps = Ops[ExitOf[I]].frameSteps();
      F->Frame = true;
      NewJ->append(std::move(F));
      I = ExitOf[I]; // maximal: the frames inside this one stay in it
    }
  }
  if (NewJ->runs().empty())
    return nullptr;
  return NewJ;
}

} // namespace

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
    resetState();
    Program = &NewP;
    return;
  }

  std::vector<char> IsEdited(static_cast<size_t>(MOld.numPredicates()), 0);
  for (const PredSig &Sig : Edited) {
    Symbol Sym = MOld.symbols().lookup(Sig.Name);
    int32_t Pid = Sym == ~0u ? -1 : MOld.findPredicate(Sym, Sig.Arity);
    if (Pid >= 0)
      IsEdited[Pid] = 1;
  }

  // Ids may shift on recompilation (first-reference order); re-resolve by
  // name/arity, which the shared symbol table makes directly comparable.
  std::vector<int32_t> PidMap(static_cast<size_t>(MOld.numPredicates()));
  for (int32_t Old = 0; Old != MOld.numPredicates(); ++Old) {
    const PredicateInfo &P = MOld.predicate(Old);
    PidMap[static_cast<size_t>(Old)] = MNew.findPredicate(P.Name, P.Arity);
  }
  auto MapOldPid = [&](int32_t Old) {
    return PidMap[static_cast<size_t>(Old)];
  };

  // A root survives iff no entry of its projection (its own entry, the
  // first, among them) is of a predicate that was edited or no longer
  // resolves. The machine reaches clause code only through doCall (no
  // builtin calls a predicate), and every call, replayed frame and memo
  // read of the root's drain lands in its query table, which the
  // projection keeps; so a surviving root runs the same clauses against
  // the same table answers on the edited program. A dead root loses its
  // cached answer and projection but keeps its journal, filtered below
  // like every other bank.
  for (RootInfo &RI : Roots) {
    if (!RI.Valid)
      continue;
    bool Dead = std::any_of(
        RI.EntryIdxs.begin(), RI.EntryIdxs.end(), [&](int32_t Idx) {
          int32_t Pid = Table->entryAt(static_cast<size_t>(Idx)).PredId;
          return MapOldPid(Pid) < 0 || IsEdited[static_cast<size_t>(Pid)];
        });
    if (Dead) {
      RI.Valid = false;
      RI.EntryIdxs.clear();
      ++St.InvalidatedRoots;
    }
  }

  // Rebuild the physical table from the survivors. Its lookup index
  // embeds PredId, so shifted ids force re-insertion anyway; rebuilding
  // also drops every dead entry in one pass.
  uint64_t OldEntries = Table->size();
  auto NewTable =
      std::make_unique<ExtensionTable>(Options.TableImpl, Interner.get());
  for (RootInfo &RI : Roots) {
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
      Idx = NE.Idx;
    }
  }

  // Every bank — each root's journal, valid or not, and the imported one —
  // keeps the traces that ran no edited code, and the clean frames of
  // those that did, re-keyed to the new module. A surviving root's traces
  // all pass (each predicate a trace of its drain names is in its
  // projection); a dead root keeps the runs and frames the edit could not
  // have changed, so its re-query replays them.
  for (RootInfo &RI : Roots)
    if (RI.Journal)
      RI.Journal = keepUnedited(*RI.Journal, PidMap, IsEdited);
  if (Imported)
    Imported = keepUnedited(*Imported, PidMap, IsEdited);
  St.ImportedTraces = Imported ? Imported->runs().size() : 0;

  St.InvalidatedEntries += OldEntries - NewTable->size();
  Table = std::move(NewTable);
  Program = &NewP;
  assert(projectionsCoverTable());
}

std::string AnalysisStore::canonicalDump(const SymbolTable &Syms) const {
  // Tag roots by identity (name + calling pattern), never by ordinal:
  // ordinals depend on query order, identities don't. A root lists each
  // of its entries once.
  std::vector<std::vector<std::string>> EntryTags(Table->size());
  for (const RootInfo &RI : Roots)
    if (RI.Valid) {
      std::string Tag =
          RI.Name + Pattern(Interner->pattern(RI.CallId)).str(Syms);
      for (int32_t Idx : RI.EntryIdxs)
        EntryTags[static_cast<size_t>(Idx)].push_back(Tag);
    }
  const CodeModule &M = *Program->Module;
  std::vector<std::string> Lines;
  for (const ETEntry &E : Table->entries()) {
    std::vector<std::string> &Tags = EntryTags[static_cast<size_t>(E.Idx)];
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
