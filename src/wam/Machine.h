//===- wam/Machine.h - The concrete WAM -------------------------*- C++ -*-===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The standard (concrete) Warren Abstract Machine: executes CodeModule
/// programs with the classic heap / stack / trail scheme, first-argument
/// indexing, last-call optimization and cut. This is the substrate the
/// paper's analyzer reinterprets; it also validates the compiler and hosts
/// the concrete benchmark runs.
///
//===----------------------------------------------------------------------===//

#ifndef AWAM_WAM_MACHINE_H
#define AWAM_WAM_MACHINE_H

#include "compiler/ProgramCompiler.h"
#include "wam/Store.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace awam {

/// Outcome of running a query.
enum class RunStatus {
  Success, ///< at least one solution found (all requested ones collected)
  Failure, ///< goal finitely failed
  Halted,  ///< halt/0 executed
  Error,   ///< machine error (see Machine::errorMessage)
};

/// One solution: the query's variable bindings rendered as terms.
struct Solution {
  /// Binding per query variable id (index = var id as numbered by the
  /// parser for the goal term); terms live in the arena passed to solve().
  std::vector<const Term *> Bindings;
};

/// Resource limits and knobs.
struct MachineOptions {
  uint64_t MaxSteps = 500'000'000; ///< instruction budget before Error
  size_t MaxHeapCells = 64u << 20; ///< heap budget before Error
};

/// Execution statistics of the last solve() (high-water marks).
struct MachineStats {
  uint64_t Instructions = 0;
  uint64_t ChoicePoints = 0;  ///< choice points created (Try executed)
  uint64_t Environments = 0;  ///< environments allocated
  uint64_t Backtracks = 0;
  /// Flagged specialized instructions whose asserted fact held at runtime
  /// (deref/bind shortcut taken). Always 0 on unspecialized code.
  uint64_t FastPathHits = 0;
  /// Wall-clock of the last solve() in milliseconds.
  double WallMs = 0.0;
  size_t MaxHeapCells = 0;
  size_t MaxTrailEntries = 0;
  size_t MaxStackSlots = 0;
};

/// The compound pairs one Machine::unify call has already scheduled, for
/// the coinductive rule on cyclic (rational) terms: an open-addressing set
/// of unordered address pairs. Each slot carries the epoch of the call
/// that wrote it, so clear() is one increment however large an earlier
/// call grew the table, and a lookup is O(1) expected.
class UnifyPairSet {
public:
  /// Forgets every pair.
  void clear() {
    Live = 0;
    if (++Epoch == 0) { // wrapped: no stale slot may read as current
      for (Slot &S : Slots)
        S.Epoch = 0;
      Epoch = 1;
    }
  }

  /// Adds the unordered pair {A, B}; false if it is already present.
  bool insert(int64_t A, int64_t B) {
    if (A > B)
      std::swap(A, B);
    if (10 * (Live + 1) >= 7 * Slots.size())
      grow();
    return place(A, B);
  }

private:
  struct Slot {
    int64_t A = 0, B = 0;
    uint32_t Epoch = 0; ///< 0 never matches: Epoch starts at 1
  };

  bool place(int64_t A, int64_t B) {
    uint64_t H = static_cast<uint64_t>(A) * 0x9e3779b97f4a7c15ull ^
                 static_cast<uint64_t>(B);
    H = (H ^ (H >> 31)) * 0xbf58476d1ce4e5b9ull;
    const size_t Mask = Slots.size() - 1;
    for (size_t I = (H ^ (H >> 29)) & Mask;; I = (I + 1) & Mask) {
      Slot &S = Slots[I];
      if (S.Epoch != Epoch) {
        S = {A, B, Epoch};
        ++Live;
        return true;
      }
      if (S.A == A && S.B == B)
        return false;
    }
  }

  /// Doubles the table, keeping this call's pairs.
  void grow() {
    std::vector<Slot> Old = std::move(Slots);
    Slots.assign(Old.empty() ? 16 : 2 * Old.size(), Slot{});
    Live = 0;
    for (const Slot &S : Old)
      if (S.Epoch == Epoch)
        place(S.A, S.B);
  }

  std::vector<Slot> Slots;
  size_t Live = 0;
  uint32_t Epoch = 1;
};

/// The concrete WAM interpreter.
///
/// Usage: construct over a compiled program, then solve() a goal term.
/// The machine is reusable: each solve() resets the dynamic state.
class Machine {
public:
  Machine(const CompiledProgram &Program, MachineOptions Options = {});

  /// Runs goal \p Goal (an atom or structure; conjunctions must be wrapped
  /// in a program predicate). Collects up to \p MaxSolutions solutions into
  /// \p Arena. \p NumGoalVars is the parser's variable count for the goal.
  RunStatus solve(const Term *Goal, int NumGoalVars, TermArena &Arena,
                  std::vector<Solution> &SolutionsOut, int MaxSolutions = 1);

  /// Convenience: true if \p Goal has at least one solution.
  bool proves(const Term *Goal, int NumGoalVars = 0);

  /// Text written by write/1, nl/0, tab/1 during the last solve().
  const std::string &output() const { return Out; }

  /// Error description when solve() returned RunStatus::Error.
  const std::string &errorMessage() const { return ErrorMsg; }

  /// Instructions executed during the last solve().
  uint64_t stepsExecuted() const { return Steps; }

  /// Execution statistics of the last solve().
  MachineStats stats() const {
    MachineStats Out = Stats;
    Out.Instructions = Steps;
    Out.MaxHeapCells = std::max(Out.MaxHeapCells, St.heapSize());
    Out.MaxTrailEntries = std::max(Out.MaxTrailEntries, St.trailSize());
    return Out;
  }

  SymbolTable &symbols() const { return Module.symbols(); }
  Store &store() { return St; }

private:

  RunStatus solveImpl(const Term *Goal, int NumGoalVars, TermArena &Arena,
                      std::vector<Solution> &SolutionsOut, int MaxSolutions);
  RunStatus runLoop();
  bool backtrack();                  // false when no choice point remains
  void fail() { Failed = true; }     // triggers backtrack in the loop
  bool execUnifyOp(const Instruction &I); // one unify_* in the current mode
  bool unify(Cell A, Cell B);
  bool runBuiltin(int Id, int Arity);
  bool evalArith(Cell C, int64_t &Out);
  int compareTerms(Cell A, Cell B); // standard order of terms
  void machineError(std::string Message);

  // Stack frame helpers (see Machine.cpp for the layouts).
  int64_t stackAllocBase() const;
  Cell &ySlot(int I) { return Stack[E + 3 + I]; }

  const CodeModule &Module;
  MachineOptions Options;
  Store St;
  std::vector<Cell> X;     // argument/temporary registers
  std::vector<Cell> Stack; // environments and choice points

  int32_t P = 0;   // program counter
  int32_t CP = 0;  // continuation (code address)
  int64_t E = -1;  // current environment (stack index)
  int64_t B = -1;  // newest choice point (stack index)
  int64_t B0 = -1; // cut barrier
  int64_t S = 0;   // structure pointer (heap address)
  bool WriteMode = false;
  bool Failed = false;
  bool Halt = false;
  uint64_t Steps = 0;
  MachineStats Stats;

  std::string Out;
  std::string ErrorMsg;
  bool HasError = false;

  // unify()'s scratch, kept across calls: the pairs still to unify and the
  // compound pairs already scheduled.
  std::vector<std::pair<Cell, Cell>> UnifyWork;
  UnifyPairSet UnifySeen;
};

} // namespace awam

#endif // AWAM_WAM_MACHINE_H
