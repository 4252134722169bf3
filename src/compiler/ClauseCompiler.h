//===- compiler/ClauseCompiler.h - Clause-to-WAM compilation ----*- C++ -*-===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles one clause into a standalone WAM code block: head `get`/`unify`
/// sequences (breadth-first over nested structures, as in the paper's
/// Figure 2), body `put` sequences (bottom-up term construction), procedural
/// instructions with last-call optimization, environment allocation, and
/// cut.
///
/// Register discipline: argument registers are X0..Xn-1; every temporary
/// variable gets a dedicated X register above the argument bank, and all
/// unbound variables are created on the heap, which makes unsafe-value
/// analysis unnecessary (see compiler/Instruction.h).
///
//===----------------------------------------------------------------------===//

#ifndef AWAM_COMPILER_CLAUSECOMPILER_H
#define AWAM_COMPILER_CLAUSECOMPILER_H

#include "compiler/CodeModule.h"
#include "support/Error.h"
#include "term/Parser.h"

#include <memory>

namespace awam {

/// Result of compiling one clause.
struct CompiledClause {
  ClauseInfo Info;      ///< code block within the module
  int NumPermanent = 0; ///< environment slots (including any cut barrier)
  int MaxXUsed = 0;     ///< highest X register index used + 1
  /// Pool index of the head's first argument when it is a constant
  /// (constant pool) or a non-list structure (functor pool), else -1; the
  /// key first-argument indexing files the clause under.
  int32_t FirstArgKey = -1;
};

/// Compiles clauses one at a time into one CodeModule, reusing its working
/// storage from clause to clause.
class ClauseCompiler {
public:
  explicit ClauseCompiler(CodeModule &Module);
  ~ClauseCompiler();

  /// Compiles \p Clause, appending its code to the module.
  /// Fails on goals the language subset does not support (e.g. variable
  /// goals or ;/2 control).
  Result<CompiledClause> compile(const ParsedClause &Clause);

  struct Scratch;

private:
  CodeModule &Module;
  std::unique_ptr<Scratch> Work;
};

} // namespace awam

#endif // AWAM_COMPILER_CLAUSECOMPILER_H
