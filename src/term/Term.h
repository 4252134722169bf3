//===- term/Term.h - Prolog source-level terms ------------------*- C++ -*-===//
//
// Part of the AWAM project (PLDI 1992 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Immutable source-level Prolog terms (the compiler's AST) and the arena
/// that owns them.
///
/// Terms are trees of Var / Int / Atom / Struct nodes. Within one clause,
/// every occurrence of the same source variable shares a single Var node, so
/// identity comparison of Var nodes is variable identity. Lists are ordinary
/// structures with functor "."/2 terminated by the atom "[]".
///
//===----------------------------------------------------------------------===//

#ifndef AWAM_TERM_TERM_H
#define AWAM_TERM_TERM_H

#include "support/SymbolTable.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <new>
#include <span>
#include <vector>

namespace awam {

/// Discriminator for Term nodes.
enum class TermKind : uint8_t {
  Var,    ///< A logic variable (named or anonymous).
  Int,    ///< An integer constant.
  Atom,   ///< An atom constant (including "[]").
  Struct, ///< A compound term f(T1,...,Tn), n >= 1.
};

/// An immutable source-level term node. Allocate via TermArena.
class Term {
public:
  TermKind kind() const { return Kind; }
  bool isVar() const { return Kind == TermKind::Var; }
  bool isInt() const { return Kind == TermKind::Int; }
  bool isAtom() const { return Kind == TermKind::Atom; }
  bool isStruct() const { return Kind == TermKind::Struct; }

  /// True for atoms and structures (things that can name a predicate).
  bool isCallable() const { return isAtom() || isStruct(); }

  /// The atom/functor name; valid for Atom and Struct nodes.
  Symbol functor() const {
    assert(isCallable() && "functor() on non-callable term");
    return Name;
  }

  /// Number of arguments (0 for atoms).
  int arity() const {
    assert(isCallable() && "arity() on non-callable term");
    return static_cast<int>(Arity);
  }

  /// The i-th argument of a structure (0-based).
  const Term *arg(int I) const {
    assert(isStruct() && I >= 0 && I < arity() && "arg() out of range");
    return Args[I];
  }

  /// All arguments of a structure (empty for other nodes).
  std::span<const Term *const> args() const {
    return {isStruct() ? Args : nullptr, Arity};
  }

  /// Integer value; valid for Int nodes.
  int64_t intValue() const {
    assert(isInt() && "intValue() on non-integer term");
    return IntVal;
  }

  /// Clause-local variable index (dense, 0-based); valid for Var nodes.
  int varId() const {
    assert(isVar() && "varId() on non-variable term");
    return static_cast<int>(IntVal);
  }

  /// Variable display name; valid for Var nodes ("_" for anonymous).
  Symbol varName() const {
    assert(isVar() && "varName() on non-variable term");
    return Name;
  }

  /// True for the atom "[]".
  bool isNil() const {
    return isAtom() && Name == SymbolTable::SymNil;
  }

  /// True for a "."/2 structure (a list cell).
  bool isCons() const {
    return isStruct() && Name == SymbolTable::SymDot && Arity == 2;
  }

private:
  friend class TermArena;
  Term() = default;

  TermKind Kind = TermKind::Atom;
  uint32_t Arity = 0; // argument count of a Struct, else 0
  Symbol Name = 0;    // atom/functor name or variable name
  union {
    int64_t IntVal = 0;       // integer value or variable id
    const Term *const *Args; // a Struct's arguments, stored in the arena
  };
};

/// Owns Term nodes; all terms created by an arena die with it.
///
/// Nodes and structure argument arrays are bump-allocated from chunks the
/// arena owns. The first chunk is small, because many short-lived arenas
/// (one per program, goal or solution) can be alive at once; each further
/// chunk doubles, up to 256 KB, so a large program takes few allocations.
/// Nothing is freed before the arena.
class TermArena {
public:
  TermArena() = default;
  TermArena(const TermArena &) = delete;
  TermArena &operator=(const TermArena &) = delete;

  /// Creates a variable node. \p VarId must be dense within the enclosing
  /// clause (the parser guarantees this).
  const Term *mkVar(Symbol DisplayName, int VarId) {
    Term *T = newNode(TermKind::Var, DisplayName);
    T->IntVal = VarId;
    return T;
  }

  const Term *mkInt(int64_t Value) {
    Term *T = newNode(TermKind::Int, 0);
    T->IntVal = Value;
    return T;
  }

  const Term *mkAtom(Symbol Name) { return newNode(TermKind::Atom, Name); }

  /// Creates \p Name(Args...); the arguments are copied into the arena.
  const Term *mkStruct(Symbol Name, std::span<const Term *const> Args) {
    assert(!Args.empty() && "structure must have at least one argument");
    // One allocation holds the node and, right behind it, its arguments.
    void *Mem = allocate(sizeof(Term) + Args.size() * sizeof(const Term *));
    Term *T = new (Mem) Term();
    auto **ArgMem = reinterpret_cast<const Term **>(T + 1);
    std::copy(Args.begin(), Args.end(), ArgMem);
    T->Kind = TermKind::Struct;
    T->Name = Name;
    T->Arity = static_cast<uint32_t>(Args.size());
    T->Args = ArgMem;
    ++NumNodes;
    return T;
  }
  const Term *mkStruct(Symbol Name, std::initializer_list<const Term *> Args) {
    return mkStruct(Name, std::span<const Term *const>(Args.begin(),
                                                        Args.size()));
  }

  /// Builds a list cell [Head|Tail].
  const Term *mkCons(const Term *Head, const Term *Tail) {
    return mkStruct(SymbolTable::SymDot, {Head, Tail});
  }

  /// Builds a proper list of \p Elements.
  const Term *mkList(std::span<const Term *const> Elements,
                     const Term *Tail) {
    const Term *T = Tail;
    for (size_t I = Elements.size(); I != 0; --I)
      T = mkCons(Elements[I - 1], T);
    return T;
  }

  /// Number of nodes created so far.
  size_t numNodes() const { return NumNodes; }

private:
  static constexpr size_t kFirstChunkBytes = 512;
  static constexpr size_t kMaxChunkBytes = size_t(256) << 10;

  Term *newNode(TermKind Kind, Symbol Name) {
    Term *T = new (allocate(sizeof(Term))) Term();
    T->Kind = Kind;
    T->Name = Name;
    ++NumNodes;
    return T;
  }

  /// Returns \p Bytes (a multiple of the pointer size) of chunk memory.
  void *allocate(size_t Bytes) {
    if (static_cast<size_t>(End - Cur) < Bytes)
      grow(Bytes);
    void *P = Cur;
    Cur += Bytes;
    return P;
  }

  void grow(size_t Bytes) {
    NextChunkBytes = std::min(NextChunkBytes * 2, kMaxChunkBytes);
    size_t Size = std::max(NextChunkBytes, Bytes);
    // operator new[] aligns for any fundamental type, which covers Term.
    Chunks.push_back(std::make_unique_for_overwrite<std::byte[]>(Size));
    Cur = Chunks.back().get();
    End = Cur + Size;
  }

  // Every allocation is a node plus pointers, so pointer-size steps keep
  // every node aligned.
  static_assert(alignof(Term) <= alignof(const Term *));

  std::vector<std::unique_ptr<std::byte[]>> Chunks;
  std::byte *Cur = nullptr;
  std::byte *End = nullptr;
  size_t NextChunkBytes = kFirstChunkBytes / 2;
  size_t NumNodes = 0;
};

/// Structural equality of two terms (variables compare by identity).
bool termEquals(const Term *A, const Term *B);

} // namespace awam

#endif // AWAM_TERM_TERM_H
