//===- support/SymbolTable.h - Interned atom/functor names ------*- C++ -*-===//
//
// Part of the AWAM project: a reproduction of Tan & Lin, "Compiling Dataflow
// Analysis of Logic Programs", PLDI 1992.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interning table mapping atom and functor names to dense 32-bit ids.
///
/// Every atom, functor and variable name in the system is represented by a
/// Symbol, so term comparison and WAM operand encoding are integer
/// comparisons. A SymbolTable is owned by a Program/Machine context and
/// passed by reference; Symbols from different tables must not be mixed.
///
//===----------------------------------------------------------------------===//

#ifndef AWAM_SUPPORT_SYMBOLTABLE_H
#define AWAM_SUPPORT_SYMBOLTABLE_H

#include "support/FlatMap.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

namespace awam {

/// Dense id of an interned name. Symbol 0 is always the empty-list atom "[]"
/// and symbol 1 is always the list constructor "."; see SymbolTable.
using Symbol = uint32_t;

/// Interning table for atom and functor names.
///
/// The table pre-interns the handful of names the machine itself needs so
/// that they have fixed, documented ids (see the Sym* constants below).
///
/// Names are copied into an append-only character arena and indexed by a
/// hash of their bytes in one flat map, so interning a name costs one hash,
/// one probe and, on a miss, one bump copy: no node and no std::string per
/// symbol.
class SymbolTable {
public:
  /// Fixed ids of pre-interned symbols.
  enum : Symbol {
    SymNil = 0,     ///< "[]" the empty list
    SymDot = 1,     ///< "." the list constructor
    SymComma = 2,   ///< ","
    SymNeck = 3,    ///< ":-"
    SymTrue = 4,    ///< "true"
    SymFail = 5,    ///< "fail"
    SymCut = 6,     ///< "!"
    SymCurly = 7,   ///< "{}"
    SymMinus = 8,   ///< "-"
    SymPlus = 9,    ///< "+"
    NumFixedSymbols = 10,
  };

  SymbolTable();

  /// Returns the id for \p Name, interning it on first use.
  Symbol intern(std::string_view Name);

  /// Returns the name of \p S. The returned view is stable for the lifetime
  /// of the table, including across a move of the table.
  std::string_view name(Symbol S) const {
    assert(S < Names.size() && "symbol out of range");
    return Names[S];
  }

  /// Returns the id of \p Name if it is already interned, or ~0u otherwise.
  Symbol lookup(std::string_view Name) const;

  /// Number of interned symbols.
  size_t size() const { return Names.size(); }

private:
  /// Copies \p Name into the arena and returns the stable copy.
  std::string_view store(std::string_view Name);

  /// Views of every name, by id: into the arena, or into the static
  /// strings of the fixed symbols.
  std::vector<std::string_view> Names;
  /// Name hash -> ids with that hash (collisions compare names).
  detail::FlatMap64 Index;
  /// Arena chunks; a chunk is never moved or freed before the table.
  std::vector<std::unique_ptr<char[]>> Chunks;
  char *ChunkCur = nullptr;
  size_t ChunkLeft = 0;
  size_t NextChunkBytes = 0;
};

} // namespace awam

#endif // AWAM_SUPPORT_SYMBOLTABLE_H
