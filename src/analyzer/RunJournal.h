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
/// frame returns, summary growth) plus its instruction cost. The machine
/// is deterministic between table interactions, so a trace whose recorded
/// table answers still hold *is* the run — a later query validates each
/// banked trace against the live state and applies its effects instead of
/// re-executing clause code (see Incremental.h for the validation
/// protocol).
///
/// Every frame of a run is a trace in its own right: the ops between an
/// Enter and its Exit are everything that exploration did, and its Exit
/// records the abstract instructions the frame executed. So a trace comes
/// in two kinds. A *run* trace is a whole activation run, rooted where the
/// scheduler popped it; its Steps counts the Halt its root executes on
/// success. A *frame* trace is one inline exploration cut out of a run (the
/// store keeps the clean frames of a run that entered edited code), rooted
/// at the Enter's predicate, calling pattern and pre-exploration summary;
/// its Steps is its Exit's, with no Halt. A frame's activations are 1 plus
/// the Enter ops inside it, and so are a run's.
///
/// Traces hold patterns as PatternIds, copied from the recorded entries'
/// CallId/SuccessId, so an op is 16 bytes and recording does no lookup.
/// The ids belong to one interner, fixed by where the trace lives: a trace
/// in an AnalysisStore's journals uses that store's append-only interner
/// (every query of the store shares it, and import re-interns foreign
/// traces into it), and a trace in a SummaryBundle uses the bundle's
/// SummaryBundle::Patterns. Equal ids are equal patterns, which is what
/// lets replay validate by id comparison.
///
/// Traces reference predicates by the store's current module's PredIds.
/// When the store moves to a *recompiled* module, whose ids may differ
/// (CodeModule assigns ids in first-reference order, which clause edits
/// can shift), it re-keys every journal by name/arity through the old
/// module, which is still alive at that point.
///
//===----------------------------------------------------------------------===//

#ifndef AWAM_ANALYZER_RUNJOURNAL_H
#define AWAM_ANALYZER_RUNJOURNAL_H

#include "analyzer/ExtensionTable.h"
#include "support/FlatMap.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace awam {

/// Name/arity of a predicate — the module-independent key used to
/// re-resolve predicate ids against a recompiled or foreign module.
struct PredSig {
  std::string Name;
  int32_t Arity = 0;
};

/// One extension-table interaction of an activation run, in execution
/// order. Patterns are ids of the trace's interner (see the file comment);
/// kInvalidPatternId as a summary means the call had not succeeded yet.
/// An Exit names no pattern: its Call and Summary fields hold the low and
/// high halves of its frame's step count (exitOp, frameSteps).
struct TraceOp {
  enum Kind : uint8_t {
    Memo,  ///< call answered from the memo; Summary is what it observed
    Enter, ///< call explored inline; Summary is the pre-exploration memo
    Exit,  ///< a frame returned (clauses exhausted); pairs with Enter/root
    Grow,  ///< the current frame's summary grew to Summary
  };
  Kind K = Memo;
  bool Created = false; ///< Enter only: the call created the entry
  int32_t Pred = -1;    ///< Memo/Enter: callee PredId
  PatternId Call = kInvalidPatternId; ///< Memo/Enter: calling pattern
  PatternId Summary = kInvalidPatternId;

  /// The Exit of a frame that executed \p Steps abstract instructions.
  static TraceOp exitOp(uint64_t Steps) {
    return {Exit, false, -1, static_cast<PatternId>(Steps),
            static_cast<PatternId>(Steps >> 32)};
  }
  /// An Exit's frame step count.
  uint64_t frameSteps() const {
    assert(K == Exit && "only an exit records steps");
    return static_cast<uint64_t>(Call) | static_cast<uint64_t>(Summary) << 32;
  }
  /// Do Call and Summary hold pattern ids (everything but an Exit)?
  bool namesPatterns() const { return K != Exit; }
};
static_assert(sizeof(TraceOp) <= 16, "a trace op is two ids and a pred");

/// Everything one activation run, or one frame of it, observed and did.
struct RunTrace {
  int32_t Pred = -1; ///< root PredId
  PatternId Call = kInvalidPatternId;
  PatternId PreSuccess = kInvalidPatternId; ///< root summary before the run
  std::vector<TraceOp> Ops; ///< through the root frame's Exit
  uint64_t Steps = 0;       ///< abstract instructions this trace executed
  bool Error = false;       ///< errored or unbalanced; never replayable
  bool Frame = false;       ///< a frame trace, not a run (file comment)
};

/// Heap bytes of one trace: the trace object and its op vector (the
/// patterns live in the interner). Traces are shared across journals by
/// handle, so aggregate accounting must deduplicate by trace address (see
/// AnalysisStore::bytesUsed).
inline size_t traceHeapBytes(const RunTrace &T) {
  return sizeof(RunTrace) + T.Ops.capacity() * sizeof(TraceOp);
}

/// Adds \p T's address to the trace set \p Seen; false when it was there.
/// Journals share traces by handle, so every walk over several of them
/// dedupes this way.
inline bool firstSighting(detail::FlatMap64 &Seen, const RunTrace *T) {
  return Seen.insertUnique(reinterpret_cast<uintptr_t>(T), 0);
}

/// Recorded traces one drain may replay from (see TraceReplay), in bank
/// order. Traces are shared by handle across journals and banks.
using TraceBank = std::vector<std::shared_ptr<const RunTrace>>;

/// The trace log of one analysis run, in activation commit order. Owns
/// shared handles so replayed traces carry over to the next journal
/// without copying (each store root keeps the journal of its last drain).
class RunJournal {
public:
  // --- recording API (driven by AbstractMachine::runActivation) ---------
  // Only interned tables record (the store's queries): every entry passed
  // in carries its CallId/SuccessId.

  void beginRun(const ETEntry &Root) {
    assert(Root.CallId != kInvalidPatternId && "journals record ids");
    Open = std::make_shared<RunTrace>();
    Open->Pred = Root.PredId;
    Open->Call = Root.CallId;
    Open->PreSuccess = Root.SuccessId;
    OpenOps.clear();
    Depth = 1;
  }

  void noteMemo(const ETEntry &E) {
    if (Open)
      OpenOps.push_back({TraceOp::Memo, false, E.PredId, E.CallId,
                         E.SuccessId});
  }

  void enterCall(const ETEntry &E, bool Created) {
    if (!Open)
      return;
    OpenOps.push_back({TraceOp::Enter, Created, E.PredId, E.CallId,
                       E.SuccessId});
    ++Depth;
  }

  /// The open frame returned after executing \p FrameSteps instructions.
  void exitCall(uint64_t FrameSteps) {
    if (!Open)
      return;
    OpenOps.push_back(TraceOp::exitOp(FrameSteps));
    --Depth;
  }

  void noteGrow(const ETEntry &E) {
    if (Open)
      OpenOps.push_back({TraceOp::Grow, false, -1, kInvalidPatternId,
                         E.SuccessId});
  }

  /// A call explored \p F's root inline (\p Created: the call created the
  /// entry) and replay applied frame trace \p F in its place: records the
  /// Enter execution would have recorded, then \p F's ops through its
  /// Exit.
  void spliceFrame(const RunTrace &F, bool Created) {
    if (!Open)
      return;
    OpenOps.push_back({TraceOp::Enter, Created, F.Pred, F.Call,
                       F.PreSuccess});
    OpenOps.insert(OpenOps.end(), F.Ops.begin(), F.Ops.end());
  }

  void endRun(uint64_t Steps, bool Error) {
    if (!Open)
      return;
    // One exact-size allocation per banked trace; the growth happened in
    // the reused OpenOps buffer.
    Open->Ops.assign(OpenOps.begin(), OpenOps.end());
    Open->Steps = Steps;
    // An errored run stops mid-frame-stack; its trace is a prefix of no
    // complete run and must never replay.
    Open->Error = Error || Depth != 0;
    Runs.push_back(std::move(Open));
    Open.reset();
  }

  /// Frees the recording buffer: the journal is banked and records no
  /// more runs.
  void finishRecording() { std::vector<TraceOp>().swap(OpenOps); }

  // --- replay-side API ---------------------------------------------------

  /// Appends \p T, whose ids are already this journal's (predicate ids of
  /// the store's module, pattern ids of the store's interner).
  void append(std::shared_ptr<const RunTrace> T) {
    Runs.push_back(std::move(T));
  }

  const TraceBank &runs() const { return Runs; }

  /// Heap bytes of this journal's handle vector, plus every referenced
  /// trace whose address is new to \p Seen (see firstSighting): threading
  /// one set through a group of journals counts each trace object once.
  size_t bytesUsed(detail::FlatMap64 &Seen) const {
    size_t B = Runs.capacity() * sizeof(std::shared_ptr<const RunTrace>) +
               OpenOps.capacity() * sizeof(TraceOp);
    for (const std::shared_ptr<const RunTrace> &T : Runs)
      if (firstSighting(Seen, T.get()))
        B += traceHeapBytes(*T);
    return B;
  }

private:
  TraceBank Runs;
  std::shared_ptr<RunTrace> Open; ///< run currently being recorded
  std::vector<TraceOp> OpenOps;   ///< its ops (reused across runs)
  int Depth = 0;                  ///< open frames (balance check)
};

} // namespace awam

#endif // AWAM_ANALYZER_RUNJOURNAL_H
