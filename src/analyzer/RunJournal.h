//===- analyzer/RunJournal.h - Replayable activation-run traces -*- C++ -*-===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recording substrate of journal replay (analyzer/Incremental.h). While
/// an AnalysisStore query drains, the abstract machine appends one
/// RunTrace per activation run: the ordered sequence of extension-table
/// interactions the run performed (memo reads, inline clause explorations,
/// frame returns, summary growth) plus its instruction/activation cost.
/// The machine is deterministic between table interactions, so a trace
/// whose recorded table answers still hold *is* the run — a later query
/// validates each banked trace against the live state and applies its
/// effects instead of re-executing clause code (see Incremental.h for the
/// validation protocol).
///
/// Traces reference predicates by the recording module's PredId; the
/// journal eagerly resolves every referenced id to its (name, arity) so the
/// store can re-key a journal to a *recompiled* module, whose ids may
/// differ (CodeModule assigns ids in first-reference order, which clause
/// edits can shift). Patterns are stored by value for the same reason —
/// interner ids are run-local.
///
//===----------------------------------------------------------------------===//

#ifndef AWAM_ANALYZER_RUNJOURNAL_H
#define AWAM_ANALYZER_RUNJOURNAL_H

#include "analyzer/ExtensionTable.h"
#include "compiler/CodeModule.h"

#include <cassert>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace awam {

/// Name/arity of a recorded predicate — the module-independent key used to
/// re-resolve trace ids against a recompiled module.
struct PredSig {
  std::string Name;
  int32_t Arity = 0;
};

/// One extension-table interaction of an activation run, in execution
/// order.
struct TraceOp {
  enum Kind : uint8_t {
    Memo,  ///< call answered from the memo; Summary is what it observed
    Enter, ///< call explored inline; Summary is the pre-exploration memo
    Exit,  ///< a frame returned (clauses exhausted); pairs with Enter/root
    Grow,  ///< the current frame's summary grew to Summary
  };
  Kind K = Memo;
  bool Created = false; ///< Enter only: the call created the entry
  int32_t Pred = -1;    ///< Memo/Enter: callee PredId (recording module)
  Pattern Call;         ///< Memo/Enter: canonical calling pattern
  std::optional<Pattern> Summary;
};

/// Everything one activation run observed and did.
struct RunTrace {
  int32_t Pred = -1; ///< root PredId (recording module)
  Pattern Call;
  std::optional<Pattern> PreSuccess; ///< root summary before the run
  std::vector<TraceOp> Ops;
  uint64_t Steps = 0;       ///< abstract instructions this run executed
  uint64_t Activations = 0; ///< clause-list explorations (root + Enters)
  bool Error = false;       ///< errored or unbalanced; never replayable
};

/// Approximate heap bytes of one trace: the op vector plus every pattern
/// payload it carries. Traces are shared across journals by handle, so
/// aggregate accounting must deduplicate by trace address (see
/// AnalysisStore::bytesUsed).
inline size_t traceHeapBytes(const RunTrace &T) {
  size_t B = sizeof(RunTrace) + T.Ops.capacity() * sizeof(TraceOp) +
             patternHeapBytes(T.Call) +
             (T.PreSuccess ? patternHeapBytes(*T.PreSuccess) : 0);
  for (const TraceOp &Op : T.Ops)
    B += patternHeapBytes(Op.Call) +
         (Op.Summary ? patternHeapBytes(*Op.Summary) : 0);
  return B;
}

/// Recorded traces one drain may replay from (see TraceReplay), in bank
/// order. Traces are shared by handle across journals and banks.
using TraceBank = std::vector<std::shared_ptr<const RunTrace>>;

/// The trace log of one analysis run, in activation commit order. Owns
/// shared handles so replayed traces carry over to the next journal
/// without copying (each store root keeps the journal of its last drain).
class RunJournal {
public:
  explicit RunJournal(const CodeModule &M) : Module(&M) {}

  // --- recording API (driven by AbstractMachine::runActivation) ---------

  void beginRun(const ETEntry &Root) {
    Open = std::make_shared<RunTrace>();
    Open->Pred = Root.PredId;
    Open->Call = Root.Call;
    Open->PreSuccess = Root.Success;
    Depth = 1;
    rememberSig(Root.PredId);
  }

  void noteMemo(const ETEntry &E) {
    if (!Open)
      return;
    TraceOp Op;
    Op.K = TraceOp::Memo;
    Op.Pred = E.PredId;
    Op.Call = E.Call;
    Op.Summary = E.Success;
    Open->Ops.push_back(std::move(Op));
    rememberSig(E.PredId);
  }

  void enterCall(const ETEntry &E, bool Created) {
    if (!Open)
      return;
    TraceOp Op;
    Op.K = TraceOp::Enter;
    Op.Created = Created;
    Op.Pred = E.PredId;
    Op.Call = E.Call;
    Op.Summary = E.Success;
    Open->Ops.push_back(std::move(Op));
    ++Depth;
    rememberSig(E.PredId);
  }

  void exitCall() {
    if (!Open)
      return;
    TraceOp Op;
    Op.K = TraceOp::Exit;
    Open->Ops.push_back(std::move(Op));
    --Depth;
  }

  void noteGrow(const ETEntry &E) {
    if (!Open)
      return;
    TraceOp Op;
    Op.K = TraceOp::Grow;
    Op.Summary = E.Success;
    Open->Ops.push_back(std::move(Op));
  }

  void endRun(uint64_t Steps, uint64_t Activations, bool Error) {
    if (!Open)
      return;
    Open->Steps = Steps;
    Open->Activations = Activations;
    // An errored run stops mid-frame-stack; its trace is a prefix of no
    // complete run and must never replay.
    Open->Error = Error || Depth != 0;
    Runs.push_back(std::move(Open));
    Open.reset();
  }

  // --- replay-side API ---------------------------------------------------

  /// Appends \p T, whose predicate ids are already this journal's module
  /// ids (e.g. a trace banked by another query over the same module),
  /// registering their sigs.
  void append(std::shared_ptr<const RunTrace> T) {
    rememberSig(T->Pred);
    for (const TraceOp &Op : T->Ops)
      if (Op.Pred >= 0)
        rememberSig(Op.Pred);
    Runs.push_back(std::move(T));
  }

  /// Appends a trace recorded against another module. \p MapPid maps that
  /// module's ids to this module's (every id \p T uses must map, which the
  /// store checks before re-keying). The trace is shared when the mapping
  /// is the identity on those ids, and copied/rewritten otherwise.
  template <typename MapPidFn>
  void appendRemapped(const std::shared_ptr<const RunTrace> &T,
                      MapPidFn MapPid) {
    auto MapOf = [&MapPid](int32_t Pid) {
      int32_t NewPid = MapPid(Pid);
      assert(NewPid >= 0 && "re-keyed trace ids must resolve");
      return NewPid;
    };
    bool Identity = MapOf(T->Pred) == T->Pred;
    for (const TraceOp &Op : T->Ops)
      if (Op.Pred >= 0 && MapOf(Op.Pred) != Op.Pred)
        Identity = false;
    if (Identity) {
      append(T);
      return;
    }
    auto Copy = std::make_shared<RunTrace>(*T);
    Copy->Pred = MapOf(Copy->Pred);
    for (TraceOp &Op : Copy->Ops)
      if (Op.Pred >= 0)
        Op.Pred = MapOf(Op.Pred);
    append(std::move(Copy));
  }

  const TraceBank &runs() const { return Runs; }

  /// Heap bytes of this journal's handle vector and sig map, plus every
  /// referenced trace whose address is new to \p Seen. Traces are shared
  /// across journals by handle; threading one seen-set through a group of
  /// journals counts each trace object exactly once.
  size_t bytesUsed(std::unordered_set<const RunTrace *> &Seen) const {
    size_t B = Runs.capacity() * sizeof(std::shared_ptr<const RunTrace>) +
               Sigs.size() * (sizeof(int32_t) + sizeof(PredSig));
    for (const std::shared_ptr<const RunTrace> &T : Runs)
      if (Seen.insert(T.get()).second)
        B += traceHeapBytes(*T);
    return B;
  }

  /// PredId -> (name, arity) for every id appearing in stored traces.
  const std::unordered_map<int32_t, PredSig> &sigs() const { return Sigs; }

private:
  void rememberSig(int32_t Pid) {
    if (Pid < 0 || Sigs.count(Pid))
      return;
    const PredicateInfo &Info = Module->predicate(Pid);
    Sigs.emplace(Pid, PredSig{std::string(Module->symbols().name(Info.Name)),
                              Info.Arity});
  }

  const CodeModule *Module;
  TraceBank Runs;
  std::shared_ptr<RunTrace> Open; ///< run currently being recorded
  int Depth = 0;                  ///< open frames (balance check)
  std::unordered_map<int32_t, PredSig> Sigs;
};

} // namespace awam

#endif // AWAM_ANALYZER_RUNJOURNAL_H
